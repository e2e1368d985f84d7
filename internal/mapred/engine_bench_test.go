package mapred

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/pigmix"
	"repro/internal/types"
)

// benchRuns builds nRuns unsorted shuffle runs of runLen records each, with
// multi-column keys drawn from a small domain so the comparator does real
// work on ties.
func benchRuns(nRuns, runLen int) [][]shuffleRec {
	rng := rand.New(rand.NewSource(7))
	runs := make([][]shuffleRec, nRuns)
	seq := int64(0)
	for r := range runs {
		run := make([]shuffleRec, runLen)
		for i := range run {
			run[i] = shuffleRec{
				key: types.Tuple{
					types.NewInt(int64(rng.Intn(64))),
					types.NewString(fmt.Sprintf("u%03d", rng.Intn(128))),
				},
				seq: seq,
				val: types.Tuple{types.NewInt(int64(rng.Intn(1000)))},
			}
			seq++
		}
		runs[r] = run
	}
	return runs
}

func cloneRuns(src [][]shuffleRec) [][]shuffleRec {
	out := make([][]shuffleRec, len(src))
	for i, r := range src {
		out[i] = append([]shuffleRec(nil), r...)
	}
	return out
}

// BenchmarkShuffleKernel measures the reduce-side ordering kernel on
// identical input: the baseline (concatenate every run into one buffer, one
// sort.SliceStable over the closure-chain referenceCompareRec) against the
// data plane's kernel (per-run compiled sort + k-way merge into a pooled
// buffer).
func BenchmarkShuffleKernel(b *testing.B) {
	const nRuns, runLen = 8, 4_000
	base := benchRuns(nRuns, runLen)
	total := nRuns * runLen
	blocking := &physical.Operator{Kind: physical.OpGroup, Keys: [][]*expr.Expr{{expr.ColIdx(0)}}}
	cmp := compileComparator(blocking)

	b.Run("serial-concat-slicestable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runs := cloneRuns(base)
			b.StartTimer()
			buf := make([]shuffleRec, 0, total)
			for _, r := range runs {
				buf = append(buf, r...)
			}
			sort.SliceStable(buf, func(i, j int) bool { return referenceCompareRec(blocking, &buf[i], &buf[j]) < 0 })
		}
	})

	b.Run("sorted-runs-kway-merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runs := cloneRuns(base)
			b.StartTimer()
			for _, r := range runs {
				sortRun(cmp, r)
			}
			merged := mergeRuns(cmp, runs, getRecSlice(&mergePool, total))
			putRecSlice(&mergePool, merged)
		}
	})
}

// benchOrderJob builds the shuffle-heavy workload: order the whole input by
// (city, name) so every row rides the shuffle and the reduce side is pure
// ordering.
func benchOrderJob(nRows int) (*dfs.FS, *Job, error) {
	fs := dfs.New()
	schema := types.NewSchema(
		types.Field{Name: "name", Kind: types.KindString},
		types.Field{Name: "city", Kind: types.KindString},
		types.Field{Name: "rev", Kind: types.KindInt},
	)
	rng := rand.New(rand.NewSource(11))
	rows := make([]types.Tuple, nRows)
	for i := range rows {
		rows[i] = types.Tuple{
			types.NewString(fmt.Sprintf("u%05d", rng.Intn(nRows))),
			types.NewString(fmt.Sprintf("c%02d", rng.Intn(20))),
			types.NewInt(int64(rng.Intn(8))),
		}
	}
	if err := fs.WritePartitioned("bench/in", schema, rows, 8); err != nil {
		return nil, nil, err
	}
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "bench/in", Schema: schema})
	o := p.Add(&physical.Operator{Kind: physical.OpOrder, Inputs: []int{l.ID},
		SortCols: []physical.SortCol{{Index: 1}, {Index: 2}, {Index: 0, Desc: true}}, Schema: schema})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: "bench/out", Inputs: []int{o.ID}, Schema: schema})
	j, err := NewJob("bench-order", p)
	return fs, j, err
}

// BenchmarkEngineOrderJob runs the whole shuffle-heavy job end to end:
// decode, shuffle, sort/merge, reduce, encode, commit.
func BenchmarkEngineOrderJob(b *testing.B) {
	const nRows = 60_000
	b.Run("parallel-plane", func(b *testing.B) {
		fs, job, err := benchOrderJob(nRows)
		if err != nil {
			b.Fatal(err)
		}
		e := NewEngine(fs, cluster.Default())
		e.ReduceTasks = 8
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.RunJob(context.Background(), job); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReduceGroupStore runs the shape the Aggressive heuristic gives
// PigMix L6 (groupStoreJob): the load stored map-side, every group's bag
// built, stored reduce-side and folded by a Foreach. Its B/op is what
// store framing and bag construction allocate.
func BenchmarkReduceGroupStore(b *testing.B) {
	fs := dfs.New()
	writeViews(b, fs, "bench/views", 40_000, 2_000, 12, 8)
	job := groupStoreJob(b, "bench/views", "bench")
	e := NewEngine(fs, cluster.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunJob(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoredBagFold runs the residual job sub-job reuse leaves PigMix
// L3 (bagFoldJob): a map-only fold of SUM, AVG, MIN, MAX and COUNT over
// one column of every bag of a stored Group output. Its B/op is what
// reading a stored bag back and folding it allocates.
func BenchmarkStoredBagFold(b *testing.B) {
	fs := dfs.New()
	writeViews(b, fs, "bench/views", 40_000, 2_000, 12, 8)
	e := NewEngine(fs, cluster.Default())
	if _, err := e.RunJob(context.Background(), groupStoreJob(b, "bench/views", "bench")); err != nil {
		b.Fatal(err)
	}
	job := bagFoldJob(b, "restore/bench/group", "out/fold")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunJob(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapTaskProject runs the map side of PigMix L2 and L3 under the
// Aggressive heuristic on one page_views partition of Instance150GB's size:
// decode each 9-column record, project user and estimated_revenue, store
// the projection through an injected map-side Store, and shuffle it to the
// Join with users. Its B/op is what a map task allocates per partition
// when only the shuffle keeps records.
func BenchmarkMapTaskProject(b *testing.B) {
	fs := dfs.New()
	inst := pigmix.Instance150GB().Config
	cfg := pigmix.GenConfig{PageViewsRows: inst.PageViewsRows / inst.Partitions, Users: inst.Users,
		PowerUsers: 1, WideRows: 1, Partitions: 1, Seed: inst.Seed}
	if err := pigmix.Generate(fs, cfg); err != nil {
		b.Fatal(err)
	}
	views, users := pigmix.PageViewsSchema(), pigmix.UsersSchema()
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: pigmix.PathPageViews, Schema: views})
	proj := types.SchemaFromNames("user", "estimated_revenue")
	fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{l.ID},
		Exprs: []*expr.Expr{expr.ColIdx(0), expr.ColIdx(6)}, Schema: proj})
	sp := p.Add(&physical.Operator{Kind: physical.OpSplit, Inputs: []int{fe.ID}, Schema: proj, Injected: true})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: "restore/bench/proj", Inputs: []int{sp.ID}, Schema: proj, Injected: true})
	ul := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: pigmix.PathUsers, Schema: users})
	names := types.SchemaFromNames("name")
	ufe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{ul.ID},
		Exprs: []*expr.Expr{expr.ColIdx(0)}, Schema: names})
	j := p.Add(&physical.Operator{Kind: physical.OpJoin, Inputs: []int{sp.ID, ufe.ID},
		Keys: [][]*expr.Expr{{expr.ColIdx(0)}, {expr.ColIdx(0)}}, Schema: proj.Concat(names)})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/bench/join", Inputs: []int{j.ID}, Schema: j.Schema})
	job, err := NewJob("bench-project", p)
	if err != nil {
		b.Fatal(err)
	}
	input, err := fs.ReadPartitionRaw(pigmix.PathPageViews, 0)
	if err != nil {
		b.Fatal(err)
	}
	jc := NewJobContext(job, DefaultReduceTasks, true)
	spec := MapTaskSpec{LoadID: l.ID}
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr, err := ExecMapTask(context.Background(), jc, spec, input)
		if err != nil {
			b.Fatal(err)
		}
		for _, ref := range mr.Runs {
			putRecSlice(&runPool, ref.recs)
		}
	}
}
