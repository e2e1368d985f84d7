package mapred

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/types"
)

// buildAggJob constructs Load -> Group(user) -> Foreach(group, SUM(rev),
// COUNT(C), MIN(rev), MAX(rev), MIN(C)) -> Store, the canonical combinable
// shape. MIN(C) folds the whole bag, i.e. field 0 of each grouped tuple.
func buildAggJob(t *testing.T, out string, injectGroupStore bool) *Job {
	t.Helper()
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/views", Schema: viewsSchema()})
	sub := viewsSchema()
	g := p.Add(&physical.Operator{Kind: physical.OpGroup, Inputs: []int{l.ID},
		Keys: [][]*expr.Expr{{expr.ColIdx(0)}},
		Schema: types.Schema{Fields: []types.Field{
			{Name: "group"}, {Name: "C", Kind: types.KindBag, Sub: &sub}}}})
	gid := g.ID
	if injectGroupStore {
		sp := p.Add(&physical.Operator{Kind: physical.OpSplit, Inputs: []int{g.ID}, Schema: g.Schema, Injected: true})
		p.Add(&physical.Operator{Kind: physical.OpStore, Path: "restore/groupout", Inputs: []int{sp.ID}, Schema: g.Schema, Injected: true})
		gid = sp.ID
	}
	fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{gid},
		Exprs: []*expr.Expr{
			expr.ColIdx(0),
			mustBind(t, expr.Call("SUM", expr.BagProj(expr.Col("C"), "rev")), g.Schema),
			mustBind(t, expr.Call("COUNT", expr.Col("C")), g.Schema),
			mustBind(t, expr.Call("MIN", expr.BagProj(expr.Col("C"), "rev")), g.Schema),
			mustBind(t, expr.Call("MAX", expr.BagProj(expr.Col("C"), "rev")), g.Schema),
			mustBind(t, expr.Call("MIN", expr.Col("C")), g.Schema),
		},
		Schema: types.SchemaFromNames("group", "sum", "cnt", "min", "max", "first")})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: out, Inputs: []int{fe.ID}, Schema: fe.Schema})
	return mustJob(t, "agg", p)
}

func TestCombinerDetection(t *testing.T) {
	job := buildAggJob(t, "out/agg", false)
	spec := detectCombiner(job)
	if spec == nil {
		t.Fatal("combinable job not detected")
	}
	if len(spec.aggs) != 6 {
		t.Errorf("aggs = %d", len(spec.aggs))
	}
	// The key column folds nothing; each aggregate folds with its function
	// table entry.
	for i, name := range []string{"", "SUM", "COUNT", "MIN", "MAX", "MIN"} {
		var want *expr.Fold
		if name != "" {
			want = expr.Call(name).Fold()
		}
		if spec.aggs[i].fold != want {
			t.Errorf("agg %d fold = %p, want %s's %p", i, spec.aggs[i].fold, name, want)
		}
	}
}

func TestCombinerDisabledByInjectedStore(t *testing.T) {
	// A ReStore-injected Store after the Group needs the full bags, so the
	// combiner must turn itself off — this is the paper's L6 overhead
	// mechanism.
	job := buildAggJob(t, "out/agg", true)
	if detectCombiner(job) != nil {
		t.Fatal("combiner active despite materialized group output")
	}
}

func TestCombinerNotUsedForNonAlgebraic(t *testing.T) {
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/views", Schema: viewsSchema()})
	sub := viewsSchema()
	g := p.Add(&physical.Operator{Kind: physical.OpGroup, Inputs: []int{l.ID},
		Keys: [][]*expr.Expr{{expr.ColIdx(0)}},
		Schema: types.Schema{Fields: []types.Field{
			{Name: "group"}, {Name: "C", Kind: types.KindBag, Sub: &sub}}}})
	fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{g.ID},
		Exprs: []*expr.Expr{expr.ColIdx(0),
			mustBind(t, expr.Call("AVG", expr.BagProj(expr.Col("C"), "rev")), g.Schema)},
		Schema: types.SchemaFromNames("group", "avg")})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: "o", Inputs: []int{fe.ID}, Schema: fe.Schema})
	if detectCombiner(mustJob(t, "avg", p)) != nil {
		t.Error("AVG is not algebraic in this engine and must not combine")
	}
}

func TestCombinedMatchesUncombined(t *testing.T) {
	// Enough rows per key per task that partial aggregation pays off.
	rows := make([]types.Tuple, 0, 300)
	for i := 0; i < 300; i++ {
		rows = append(rows, types.Tuple{
			types.NewString([]string{"alice", "bob", "carol"}[i%3]),
			types.NewInt(int64(i % 17)),
		})
	}
	// Past 2^53 a float64 sum drops the 1s; both paths must sum ints exactly.
	rows = append(rows,
		types.Tuple{types.NewString("dave"), types.NewInt(1 << 53)},
		types.Tuple{types.NewString("dave"), types.NewInt(1)},
		types.Tuple{types.NewString("dave"), types.NewInt(1)})
	run := func(disable bool) ([]string, int64) {
		e := NewEngine(dfs.New(), cluster.Default())
		e.DisableCombiner = disable
		if err := e.FS.WritePartitioned("data/views", viewsSchema(), rows, 3); err != nil {
			t.Fatal(err)
		}
		res, err := e.RunJob(context.Background(), buildAggJob(t, "out/agg", false))
		if err != nil {
			t.Fatal(err)
		}
		return readSorted(t, e.FS, "out/agg"), res.Stats.ShuffleBytes
	}
	combined, combBytes := run(false)
	plain, plainBytes := run(true)
	if strings.Join(combined, "|") != strings.Join(plain, "|") {
		t.Errorf("combined output differs:\n%v\nvs\n%v", combined, plain)
	}
	if want := "dave\t9007199254740994\t3\t1\t9007199254740992\tdave"; !strings.Contains(strings.Join(plain, "|"), want) {
		t.Errorf("uncombined output lacks %q: %v", want, plain)
	}
	if combBytes >= plainBytes {
		t.Errorf("combiner did not shrink shuffle: %d >= %d", combBytes, plainBytes)
	}
}

func TestCombinedGroupAll(t *testing.T) {
	e := NewEngine(dfs.New(), cluster.Default())
	seedViews(t, e.FS)
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/views", Schema: viewsSchema()})
	sub := viewsSchema()
	g := p.Add(&physical.Operator{Kind: physical.OpGroup, Inputs: []int{l.ID},
		Keys: [][]*expr.Expr{{}},
		Schema: types.Schema{Fields: []types.Field{
			{Name: "group"}, {Name: "A", Kind: types.KindBag, Sub: &sub}}}})
	fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{g.ID},
		Exprs: []*expr.Expr{
			mustBind(t, expr.Call("COUNT", expr.Col("A")), g.Schema),
			mustBind(t, expr.Call("SUM", expr.BagProj(expr.Col("A"), "rev")), g.Schema)},
		Schema: types.SchemaFromNames("n", "total")})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/all", Inputs: []int{fe.ID}, Schema: fe.Schema})
	job := mustJob(t, "all", p)
	if detectCombiner(job) == nil {
		t.Fatal("GROUP ALL + algebraic aggregates should combine")
	}
	if _, err := e.RunJob(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	got := readSorted(t, e.FS, "out/all")
	if len(got) != 1 || got[0] != "5\t122" {
		t.Errorf("group all = %v, want [5\\t122]", got)
	}
}

func TestCombinerNullHandling(t *testing.T) {
	e := NewEngine(dfs.New(), cluster.Default())
	schema := types.NewSchema(
		types.Field{Name: "k", Kind: types.KindString},
		types.Field{Name: "v", Kind: types.KindInt},
	)
	rows := []types.Tuple{
		{types.NewString("a"), types.Null()},
		{types.NewString("a"), types.NewInt(5)},
		{types.NewString("b"), types.Null()},
	}
	if err := e.FS.WritePartitioned("data/nulls", schema, rows, 2); err != nil {
		t.Fatal(err)
	}
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "data/nulls", Schema: schema})
	sub := schema
	g := p.Add(&physical.Operator{Kind: physical.OpGroup, Inputs: []int{l.ID},
		Keys: [][]*expr.Expr{{expr.ColIdx(0)}},
		Schema: types.Schema{Fields: []types.Field{
			{Name: "group"}, {Name: "C", Kind: types.KindBag, Sub: &sub}}}})
	fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{g.ID},
		Exprs: []*expr.Expr{expr.ColIdx(0),
			mustBind(t, expr.Call("SUM", expr.BagProj(expr.Col("C"), "v")), g.Schema),
			mustBind(t, expr.Call("COUNT", expr.Col("C")), g.Schema)},
		Schema: types.SchemaFromNames("group", "sum", "cnt")})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/nulls", Inputs: []int{fe.ID}, Schema: fe.Schema})
	if _, err := e.RunJob(context.Background(), mustJob(t, "nulls", p)); err != nil {
		t.Fatal(err)
	}
	got := readSorted(t, e.FS, "out/nulls")
	// SUM skips nulls (a: 5), all-null group sums to null (b: empty cell);
	// COUNT counts all tuples.
	want := []string{"a\t5\t2", "b\t\t1"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("null handling = %v, want %v", got, want)
	}
}
