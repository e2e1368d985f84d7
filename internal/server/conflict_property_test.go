package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	restore "repro"
)

// TestPropertyConcurrentEqualsSerial is the end-to-end equivalence
// property: a random write-disjoint workload executed concurrently through
// the full System (leases, pinned reuse, concurrent eviction and
// registration) must leave every user output with exactly the data a
// serial execution produces, even though the two runs reuse different
// repository entries at different times. Comparison is order-insensitive
// (sorted TSV).
func TestPropertyConcurrentEqualsSerial(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			queries := genQueries(rand.New(rand.NewSource(seed)), 16)

			serial := newPropertySystem(t, seed)
			serialRows := make(map[string][]string)
			for _, q := range queries {
				res, err := serial.Execute(q.src)
				if err != nil {
					t.Fatalf("seed %d: serial %s: %v", seed, q.out, err)
				}
				rows, err := serial.ReadOutputTSV(res, q.out)
				if err != nil {
					t.Fatalf("seed %d: serial read %s: %v", seed, q.out, err)
				}
				serialRows[q.out] = rows
			}

			conc := newPropertySystem(t, seed)
			var wg sync.WaitGroup
			concRows := make([][]string, len(queries))
			errs := make([]error, len(queries))
			for i, q := range queries {
				i, q := i, q
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := conc.Execute(q.src)
					if err != nil {
						errs[i] = err
						return
					}
					concRows[i], errs[i] = conc.ReadOutputTSV(res, q.out)
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("seed %d: concurrent %s: %v", seed, queries[i].out, err)
				}
			}
			for i, q := range queries {
				want := serialRows[q.out]
				got := concRows[i]
				if len(got) != len(want) {
					t.Fatalf("seed %d: %s: %d rows concurrent vs %d serial", seed, q.out, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("seed %d: %s row %d: %q concurrent vs %q serial", seed, q.out, j, got[j], want[j])
					}
				}
			}
			if conc.Stats().Queries != int64(len(queries)) {
				t.Errorf("seed %d: concurrent system recorded %d queries, want %d",
					seed, conc.Stats().Queries, len(queries))
			}
		})
	}
}

type propQuery struct {
	src string
	out string
}

// genQueries builds a random write-disjoint workload over the shared
// property datasets: filters and group-counts with overlapping reads and
// shared sub-computations (so rewrites actually fire), each storing to its
// own output path.
func genQueries(rng *rand.Rand, n int) []propQuery {
	qs := make([]propQuery, 0, n)
	for i := 0; i < n; i++ {
		ds := rng.Intn(3)
		cut := rng.Intn(4) * 10 // few distinct constants => repeated sub-plans
		out := fmt.Sprintf("out/q%02d", i)
		var src string
		switch rng.Intn(3) {
		case 0:
			src = fmt.Sprintf(`A = load 'in/d%d' as (k:int, v:int);
B = filter A by v > %d;
store B into '%s';`, ds, cut, out)
		case 1:
			src = fmt.Sprintf(`A = load 'in/d%d' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B);
store D into '%s';`, ds, cut, out)
		default:
			src = fmt.Sprintf(`A = load 'in/d%d' as (k:int, v:int);
B = foreach A generate k, v;
C = group B by k;
D = foreach C generate group, SUM(B.v);
store D into '%s';`, ds, out)
		}
		qs = append(qs, propQuery{src: src, out: out})
	}
	return qs
}

// newPropertySystem builds a System preloaded with the three deterministic
// datasets the generated queries read.
func newPropertySystem(t *testing.T, seed int64) *restore.System {
	t.Helper()
	sys := restore.New()
	rng := rand.New(rand.NewSource(seed * 7919))
	for d := 0; d < 3; d++ {
		lines := make([]string, 300)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", rng.Intn(20), rng.Intn(40))
		}
		if err := sys.LoadTSV(fmt.Sprintf("in/d%d", d), "k:int, v:int", lines, 2); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}
