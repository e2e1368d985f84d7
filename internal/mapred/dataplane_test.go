package mapred

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/oracle"
	"repro/internal/physical"
	"repro/internal/types"
)

// The data-plane battery holds the engine's data plane (locally sorted
// runs, k-way merge, parallel map and reduce pools, pooled buffers, the
// compiled comparator, the combiner) to two references across randomized
// datasets and every blocking operator kind:
//   - internal/oracle, which evaluates each job's plan straight over the
//     in-memory tables and shares none of that code;
//   - itself at parallelism 1, to which the drawn parallelism must be
//     byte-identical.
// make check runs it under -race -count=2 (the race-engine gate), so the
// pools' interleavings vary per run while both comparisons stay exact.

// planeRun is everything observable about one run of the whole workload.
type planeRun struct {
	export  []byte                   // full DFS state (deterministic serialization)
	results []*JobResult             // per job, in workload order
	rows    map[string][]types.Tuple // output path -> rows in partition order
}

// dpTables draws the two input tables for one seed. Key domains are small
// so groups and joins collide; keys mix ints, floats that equal ints
// numerically, and nulls to exercise every comparator and partitioner path
// the shuffle can see.
func dpTables(rng *rand.Rand) []oracle.Table {
	randKey := func() types.Value {
		switch rng.Intn(10) {
		case 0:
			return types.Null()
		case 1:
			return types.NewFloat(float64(rng.Intn(8))) // collides with ints numerically
		default:
			return types.NewInt(int64(rng.Intn(8)))
		}
	}
	words := []string{"ash", "birch", "cedar", "fir", "oak", "pine"}
	aRows := make([]types.Tuple, 120+rng.Intn(80))
	for i := range aRows {
		aRows[i] = types.Tuple{
			randKey(),
			types.NewInt(int64(rng.Intn(100))),
			types.NewString(words[rng.Intn(len(words))]),
		}
	}
	bRows := make([]types.Tuple, 80+rng.Intn(60))
	for i := range bRows {
		bRows[i] = types.Tuple{
			randKey(),
			types.NewInt(int64(rng.Intn(50))),
		}
	}
	return []oracle.Table{
		{Path: "data/a", Schema: dpASchema(), Rows: aRows, Parts: 3 + rng.Intn(3)},
		{Path: "data/b", Schema: dpBSchema(), Rows: bRows, Parts: 2 + rng.Intn(3)},
	}
}

func dpASchema() types.Schema {
	return types.NewSchema(
		types.Field{Name: "k"},
		types.Field{Name: "v", Kind: types.KindInt},
		types.Field{Name: "s", Kind: types.KindString},
	)
}

func dpBSchema() types.Schema {
	return types.NewSchema(
		types.Field{Name: "k"},
		types.Field{Name: "w", Kind: types.KindInt},
	)
}

// dpJobs builds the workload: one job per blocking-operator kind (plus a
// map-only job and an injected-store job), every one writing to its own
// output path.
func dpJobs(t *testing.T, rng *rand.Rand) []*Job {
	t.Helper()
	var jobs []*Job

	{ // map-only: filter + project
		p := physical.NewPlan()
		l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/a", Schema: dpASchema()})
		f := p.Add(&physical.Operator{Kind: physical.OpFilter, Inputs: []int{l.ID},
			Pred:   expr.Binary(">", expr.ColIdx(1), expr.Lit(types.NewInt(int64(rng.Intn(40))))),
			Schema: l.Schema})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/maponly", Inputs: []int{f.ID}, Schema: f.Schema})
		jobs = append(jobs, mustJob(t, "maponly", p))
	}

	{ // group + algebraic aggregate (the combinable shape)
		p := physical.NewPlan()
		l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/a", Schema: dpASchema()})
		sub := dpASchema()
		g := p.Add(&physical.Operator{Kind: physical.OpGroup, Inputs: []int{l.ID},
			Keys: [][]*expr.Expr{{expr.ColIdx(0)}},
			Schema: types.Schema{Fields: []types.Field{
				{Name: "group"}, {Name: "A", Kind: types.KindBag, Sub: &sub}}}})
		fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{g.ID},
			Exprs: []*expr.Expr{expr.ColIdx(0),
				mustBind(t, expr.Call("COUNT", expr.Col("A")), g.Schema),
				mustBind(t, expr.Call("SUM", expr.BagProj(expr.Col("A"), "v")), g.Schema)},
			Schema: types.SchemaFromNames("group", "n", "total")})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/grouped", Inputs: []int{fe.ID}, Schema: fe.Schema})
		jobs = append(jobs, mustJob(t, "group", p))
	}

	{ // join (null keys dropped on both branches)
		p := physical.NewPlan()
		a := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/a", Schema: dpASchema()})
		b := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/b", Schema: dpBSchema()})
		j := p.Add(&physical.Operator{Kind: physical.OpJoin, Inputs: []int{a.ID, b.ID},
			Keys:   [][]*expr.Expr{{expr.ColIdx(0)}, {expr.ColIdx(0)}},
			Schema: dpASchema().Concat(dpBSchema())})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/joined", Inputs: []int{j.ID}, Schema: j.Schema})
		jobs = append(jobs, mustJob(t, "join", p))
	}

	{ // cogroup
		p := physical.NewPlan()
		a := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/a", Schema: dpASchema()})
		b := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/b", Schema: dpBSchema()})
		as, bs := dpASchema(), dpBSchema()
		cg := p.Add(&physical.Operator{Kind: physical.OpCoGroup, Inputs: []int{a.ID, b.ID},
			Keys: [][]*expr.Expr{{expr.ColIdx(0)}, {expr.ColIdx(0)}},
			Schema: types.Schema{Fields: []types.Field{
				{Name: "group"},
				{Name: "as", Kind: types.KindBag, Sub: &as},
				{Name: "bs", Kind: types.KindBag, Sub: &bs}}}})
		fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{cg.ID},
			Exprs: []*expr.Expr{expr.ColIdx(0),
				mustBind(t, expr.Call("COUNT", expr.Col("as")), cg.Schema),
				mustBind(t, expr.Call("COUNT", expr.Col("bs")), cg.Schema)},
			Schema: types.SchemaFromNames("group", "na", "nb")})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/cogrouped", Inputs: []int{fe.ID}, Schema: fe.Schema})
		jobs = append(jobs, mustJob(t, "cogroup", p))
	}

	{ // distinct over a projection
		p := physical.NewPlan()
		l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/a", Schema: dpASchema()})
		fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{l.ID},
			Exprs: []*expr.Expr{expr.ColIdx(0), expr.ColIdx(2)}, Schema: types.SchemaFromNames("k", "s")})
		d := p.Add(&physical.Operator{Kind: physical.OpDistinct, Inputs: []int{fe.ID}, Schema: fe.Schema})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/distinct", Inputs: []int{d.ID}, Schema: d.Schema})
		jobs = append(jobs, mustJob(t, "distinct", p))
	}

	{ // order by multiple columns with mixed directions
		p := physical.NewPlan()
		l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/a", Schema: dpASchema()})
		o := p.Add(&physical.Operator{Kind: physical.OpOrder, Inputs: []int{l.ID},
			SortCols: []physical.SortCol{
				{Index: 0, Desc: rng.Intn(2) == 0},
				{Index: 2, Desc: rng.Intn(2) == 0},
				{Index: 1, Desc: rng.Intn(2) == 0},
			}, Schema: l.Schema})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/ordered", Inputs: []int{o.ID}, Schema: o.Schema})
		jobs = append(jobs, mustJob(t, "order", p))
	}

	{ // limit
		p := physical.NewPlan()
		l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/b", Schema: dpBSchema()})
		lim := p.Add(&physical.Operator{Kind: physical.OpLimit, Inputs: []int{l.ID},
			N: int64(5 + rng.Intn(20)), Schema: l.Schema})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/limited", Inputs: []int{lim.ID}, Schema: l.Schema})
		jobs = append(jobs, mustJob(t, "limit", p))
	}

	{ // group with an injected map-side store riding along
		p := physical.NewPlan()
		l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/b", Schema: dpBSchema()})
		fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{l.ID},
			Exprs: []*expr.Expr{expr.ColIdx(0)}, Schema: types.SchemaFromNames("k")})
		sp := p.Add(&physical.Operator{Kind: physical.OpSplit, Inputs: []int{fe.ID}, Schema: fe.Schema, Injected: true})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "restore/sub/dp", Inputs: []int{sp.ID}, Schema: fe.Schema, Injected: true})
		g := p.Add(&physical.Operator{Kind: physical.OpGroup, Inputs: []int{sp.ID},
			Keys: [][]*expr.Expr{{expr.ColIdx(0)}}, Schema: types.SchemaFromNames("group", "C")})
		fe2 := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{g.ID},
			Exprs:  []*expr.Expr{expr.ColIdx(0), expr.Call("COUNT", expr.ColIdx(1))},
			Schema: types.SchemaFromNames("group", "cnt")})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/injected", Inputs: []int{fe2.ID}, Schema: fe2.Schema})
		jobs = append(jobs, mustJob(t, "injected", p))
	}

	return jobs
}

// dpRun executes the whole seed-derived workload and captures everything
// observable about it. The engine knobs (reduce partitions, combiner,
// parallelism) are drawn from the seed; serial pins both pools to one
// worker, so the run differs from the drawn one in scheduling only.
func dpRun(t *testing.T, seed int64, serial bool) (*planeRun, []oracle.Table, []*Job) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fs := dfs.New()
	tables := dpTables(rng)
	if err := oracle.Load(fs, tables); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(fs, cluster.Default())
	e.ReduceTasks = 1 + rng.Intn(6)
	e.DisableCombiner = rng.Intn(3) == 0
	e.MapParallelism, e.ReduceParallelism = 1+rng.Intn(4), 1+rng.Intn(4)
	if serial {
		e.MapParallelism, e.ReduceParallelism = 1, 1
	}
	run := &planeRun{rows: make(map[string][]types.Tuple)}
	jobs := dpJobs(t, rng)
	for _, job := range jobs {
		res, err := e.RunJob(context.Background(), job)
		if err != nil {
			t.Fatalf("job %s: %v", job.ID, err)
		}
		run.results = append(run.results, res)
		for _, st := range job.Plan.Sinks() {
			if run.rows[st.Path], err = fs.ReadAll(st.Path); err != nil {
				t.Fatalf("read %s: %v", st.Path, err)
			}
		}
	}
	var buf bytes.Buffer
	if err := fs.Export(&buf); err != nil {
		t.Fatal(err)
	}
	run.export = buf.Bytes()
	return run, tables, jobs
}

// TestEngineDataPlaneDifferential checks, per seed:
//   - against the oracle, every job's output rows exactly: each value's
//     kind, each bag's order and which of two equal keys (3 and 3.0) is
//     emitted. Outputs written in one partition or per map task (ORDER,
//     LIMIT, map-side stores) are compared in order; hash-partitioned ones
//     as a multiset of rows.
//   - determinism: the drawn parallelism leaves the same DFS export bytes
//     and the same JobResults as parallelism 1.
func TestEngineDataPlaneDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			got, tables, jobs := dpRun(t, seed, false)
			for _, job := range jobs {
				want, err := oracle.Eval(job.Plan, tables)
				if err != nil {
					t.Fatalf("job %s: %v", job.ID, err)
				}
				b := job.Blocking()
				for _, st := range job.Plan.Sinks() {
					ordered := job.MapSide(st.ID) || b.Kind == physical.OpOrder || b.Kind == physical.OpLimit
					if err := oracle.DiffExact(want[st.Path].Rows, got.rows[st.Path], ordered); err != nil {
						t.Errorf("job %s, %s: %v", job.ID, st.Path, err)
					}
				}
			}

			serial, _, _ := dpRun(t, seed, true)
			if !reflect.DeepEqual(serial.results, got.results) {
				for i := range serial.results {
					if !reflect.DeepEqual(serial.results[i], got.results[i]) {
						t.Errorf("job %d results differ:\nparallelism 1: %+v\ndrawn:         %+v", i, serial.results[i], got.results[i])
					}
				}
			}
			if !bytes.Equal(serial.export, got.export) {
				t.Error("DFS export bytes differ between parallelism 1 and the drawn parallelism")
			}
		})
	}
}

// borrowedJobs builds one job per blocking kind fed straight from a Load,
// so the shuffle receives the slice reader's lent spines themselves: Group
// and CoGroup storing their bags (the keys of table a hold nulls), Join,
// Distinct, Order, Limit, and a Group the combiner folds map-side.
func borrowedJobs(t *testing.T) []*Job {
	t.Helper()
	as, bs := dpASchema(), dpBSchema()
	var jobs []*Job
	add := func(id string, build func(p *physical.Plan) *physical.Operator) {
		p := physical.NewPlan()
		last := build(p)
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/" + id, Inputs: []int{last.ID}, Schema: last.Schema})
		jobs = append(jobs, mustJob(t, id, p))
	}
	loadA := func(p *physical.Plan) *physical.Operator {
		return p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/a", Schema: as})
	}
	loadB := func(p *physical.Plan) *physical.Operator {
		return p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/b", Schema: bs})
	}
	groupA := func(p *physical.Plan) *physical.Operator {
		return p.Add(&physical.Operator{Kind: physical.OpGroup, Inputs: []int{loadA(p).ID},
			Keys:   [][]*expr.Expr{{expr.ColIdx(0)}},
			Schema: types.Schema{Fields: []types.Field{{Name: "group"}, {Name: "A", Kind: types.KindBag, Sub: &as}}}})
	}
	add("group", groupA)
	add("combined", func(p *physical.Plan) *physical.Operator {
		g := groupA(p)
		return p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{g.ID},
			Exprs: []*expr.Expr{expr.ColIdx(0),
				mustBind(t, expr.Call("COUNT", expr.Col("A")), g.Schema),
				mustBind(t, expr.Call("MAX", expr.BagProj(expr.Col("A"), "v")), g.Schema)},
			Schema: types.SchemaFromNames("group", "n", "top")})
	})
	add("cogroup", func(p *physical.Plan) *physical.Operator {
		return p.Add(&physical.Operator{Kind: physical.OpCoGroup, Inputs: []int{loadA(p).ID, loadB(p).ID},
			Keys: [][]*expr.Expr{{expr.ColIdx(0)}, {expr.ColIdx(0)}},
			Schema: types.Schema{Fields: []types.Field{
				{Name: "group"},
				{Name: "as", Kind: types.KindBag, Sub: &as},
				{Name: "bs", Kind: types.KindBag, Sub: &bs}}}})
	})
	add("join", func(p *physical.Plan) *physical.Operator {
		return p.Add(&physical.Operator{Kind: physical.OpJoin, Inputs: []int{loadA(p).ID, loadB(p).ID},
			Keys: [][]*expr.Expr{{expr.ColIdx(0)}, {expr.ColIdx(0)}}, Schema: as.Concat(bs)})
	})
	add("distinct", func(p *physical.Plan) *physical.Operator {
		return p.Add(&physical.Operator{Kind: physical.OpDistinct, Inputs: []int{loadB(p).ID}, Schema: bs})
	})
	add("order", func(p *physical.Plan) *physical.Operator {
		return p.Add(&physical.Operator{Kind: physical.OpOrder, Inputs: []int{loadA(p).ID},
			SortCols: []physical.SortCol{{Index: 2}, {Index: 1, Desc: true}, {Index: 0}}, Schema: as})
	})
	add("limit", func(p *physical.Plan) *physical.Operator {
		return p.Add(&physical.Operator{Kind: physical.OpLimit, Inputs: []int{loadA(p).ID}, N: 40, Schema: as})
	})
	return jobs
}

// TestBorrowedTuplesAreCopiedByTheShuffle: map tasks push the slice
// reader's lent spine through the pipeline, and the shuffle is the one sink
// that keeps what it receives. Fed straight from a Load, every blocking
// kind must still store internal/oracle's rows exactly, at one reduce
// partition and at four.
func TestBorrowedTuplesAreCopiedByTheShuffle(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("R%d", parts), func(t *testing.T) {
			fs := dfs.New()
			tables := dpTables(rand.New(rand.NewSource(int64(parts))))
			if err := oracle.Load(fs, tables); err != nil {
				t.Fatal(err)
			}
			e := NewEngine(fs, cluster.Default())
			e.ReduceTasks = parts
			for _, job := range borrowedJobs(t) {
				if job.ID == "combined" && !NewJobContext(job, parts, true).Combining() {
					t.Fatal("the combined Group's job does not combine")
				}
				if _, err := e.RunJob(context.Background(), job); err != nil {
					t.Fatalf("job %s: %v", job.ID, err)
				}
				want, err := oracle.Eval(job.Plan, tables)
				if err != nil {
					t.Fatalf("job %s: %v", job.ID, err)
				}
				for _, st := range job.Plan.Sinks() {
					got, err := fs.ReadAll(st.Path)
					if err != nil {
						t.Fatal(err)
					}
					ordered := job.Blocking().Kind == physical.OpOrder || job.Blocking().Kind == physical.OpLimit
					if err := oracle.DiffExact(want[st.Path].Rows, got, ordered); err != nil {
						t.Errorf("job %s, %s: %v", job.ID, st.Path, err)
					}
				}
			}
		})
	}
}

// TestEngineMapPhaseCollectsAllErrors pins the errors.Join regression: when
// several map tasks fail, the job error must report every failed task, not
// whichever error won the race onto a channel.
func TestEngineMapPhaseCollectsAllErrors(t *testing.T) {
	t.Run("parallel", func(t *testing.T) {
		e := newTestEngine()
		seedViews(t, e.FS) // 3 partitions -> 3 map tasks
		// Corrupt partitions 0 and 2 so two independent tasks fail to
		// decode their input.
		for _, part := range []int{0, 2} {
			if err := e.FS.CommitPartition("data/views", part, []byte{0xff, 0xff, 0xff, 0xff}, 1); err != nil {
				t.Fatal(err)
			}
		}
		p := physical.NewPlan()
		l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/views", Schema: viewsSchema()})
		d := p.Add(&physical.Operator{Kind: physical.OpDistinct, Inputs: []int{l.ID}, Schema: l.Schema})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/multierr", Inputs: []int{d.ID}, Schema: d.Schema})
		_, err := e.RunJob(context.Background(), mustJob(t, "multierr", p))
		if err == nil {
			t.Fatal("job over corrupt input succeeded")
		}
		for _, want := range []string{"map task 0", "map task 2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error missing %q: %v", want, err)
			}
		}
		if strings.Contains(err.Error(), "map task 1") {
			t.Errorf("healthy task reported as failed: %v", err)
		}
	})
}
