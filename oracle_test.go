package restore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/types"
)

// TestOracleBattery checks ReStore's central claim against a reference
// outside the system: rewriting a job against stored outputs preserves its
// semantics. For every seeded script, the rows the system stores equal the
// rows internal/oracle computes straight from the plan, at every point of
// {shards 1, 4} x {reuse off, cold, warm, hot} x {PrepareCached, Prepare}:
//   - off: reuse, registration and sub-job stores all disabled;
//   - cold: a fresh system per script (sub-job stores injected, nothing to
//     reuse yet);
//   - warm: one system running the whole stream, then the stream again, so
//     scripts reuse each other's and then their own stored outputs;
//   - hot: WithRegisterFinalOutputs, each script executed and then served
//     again by TryServeStored.
func TestOracleBattery(t *testing.T) {
	const seeds, scripts = 3, 10
	for seed := int64(0); seed < seeds; seed++ {
		tables := oracle.Tables(seed, "t")
		gen := oracle.NewGen(seed, tables)
		srcs := make([]string, scripts)
		outs := make([]string, scripts)
		wants := make([]oracle.Output, scripts)
		for q := range srcs {
			outs[q] = fmt.Sprintf("out/q%d", q)
			srcs[q] = gen.Script(outs[q])
			res, err := oracle.Run(srcs[q], tables)
			if err != nil {
				t.Fatalf("seed %d q%d: oracle: %v\n%s", seed, q, err, srcs[q])
			}
			wants[q] = res[outs[q]]
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				for _, cached := range []bool{true, false} {
					t.Run(fmt.Sprintf("shards=%d/cached=%v", shards, cached), func(t *testing.T) {
						newSys := func(opts ...Option) *System {
							s := New(append(opts, WithShards(shards))...)
							if err := oracle.Load(s.FS(), tables); err != nil {
								t.Fatal(err)
							}
							return s
						}
						prepare := func(s *System, q int) *Prepared {
							var p *Prepared
							var err error
							if cached {
								p, _, err = s.PrepareCached(srcs[q])
							} else {
								p, err = s.Prepare(srcs[q])
							}
							if err != nil {
								t.Fatalf("prepare q%d: %v\n%s", q, err, srcs[q])
							}
							return p
						}
						check := func(leg string, q int, rows []types.Tuple) {
							if err := oracle.Diff(wants[q], rows); err != nil {
								t.Errorf("%s q%d: %v\n%s", leg, q, err, srcs[q])
							}
						}
						run := func(leg string, s *System, q int) {
							res, err := s.ExecutePrepared(prepare(s, q))
							if err != nil {
								t.Fatalf("%s q%d: %v\n%s", leg, q, err, srcs[q])
							}
							rows, err := s.ReadOutput(res, outs[q])
							if err != nil {
								t.Fatal(err)
							}
							check(leg, q, rows)
						}

						off := newSys(WithReuse(false), WithRegistration(false), WithHeuristic(HeuristicOff))
						warm := newSys()
						hot := newSys(WithRegisterFinalOutputs(true))
						for q := range srcs {
							run("off", off, q)
							run("cold", newSys(), q)
							run("warm", warm, q)
							run("hot-first", hot, q)
						}
						served := 0
						for q := range srcs {
							run("warm-again", warm, q)
							var rows []types.Tuple
							_, ok := hot.TryServeStored(prepare(hot, q), nil, func(res *Result) (err error) {
								rows, err = hot.ReadOutput(res, outs[q])
								return err
							})
							if !ok {
								run("hot-fallback", hot, q)
								continue
							}
							served++
							check("hot", q, rows)
						}
						if warm.Stats().QueriesReused == 0 {
							t.Error("the warm leg reused nothing")
						}
						if served == 0 {
							t.Error("the hot leg served nothing from stored outputs")
						}
					})
				}
			}
		})
	}
}

// TestNumericKeysMeetAtEveryPartitionCount: int 3 and double 3.0 are one
// key (types.Compare says so), so they must reach one reducer whatever the
// partition count. Joining an int-keyed table with a double-keyed one on 20
// shared keys gives 20 rows, and grouping their union gives 20 groups, at 1
// and at 4 reduce partitions alike.
func TestNumericKeysMeetAtEveryPartitionCount(t *testing.T) {
	var lines []string
	for k := 0; k < 20; k++ {
		lines = append(lines, fmt.Sprintf("%d\t%d", k, k*10))
	}
	const join = `A = load 'num/a' as (k:int, v:int);
B = load 'num/b' as (k:double, w:int);
J = join A by k, B by k;
store J into 'out/join';`
	const group = `A = load 'num/a' as (k:int, v:int);
B = load 'num/b' as (k:double, w:int);
U = union A, B;
G = group U by k;
R = foreach G generate group, COUNT(U);
store R into 'out/group';`
	for _, parts := range []int{1, 4} {
		s := New(WithReducePartitions(parts))
		if err := s.LoadTSV("num/a", "k:int, v:int", lines, 3); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadTSV("num/b", "k:double, w:int", lines, 2); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ src, out string }{{join, "out/join"}, {group, "out/group"}} {
			res, err := s.Execute(c.src)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := s.ReadOutputTSV(res, c.out)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 20 {
				t.Errorf("%s at %d reduce partitions: %d rows, want 20", c.out, parts, len(rows))
			}
			if c.out == "out/group" {
				for _, r := range rows {
					if !strings.HasSuffix(r, "\t2") {
						t.Errorf("group at %d reduce partitions: %q, want every key counted twice", parts, r)
						break
					}
				}
			}
		}
	}
}
