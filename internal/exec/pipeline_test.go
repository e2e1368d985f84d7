package exec

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/types"
)

// buildLinear constructs Load -> Filter(n>1) -> Foreach(n, n*10) -> Store.
func buildLinear(t *testing.T) (*physical.Plan, *physical.Operator, *physical.Operator) {
	t.Helper()
	p := physical.NewPlan()
	load := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "in",
		Schema: types.SchemaFromNames("n")})
	filt := p.Add(&physical.Operator{Kind: physical.OpFilter, Inputs: []int{load.ID},
		Pred:   expr.Binary(">", expr.ColIdx(0), expr.Lit(types.NewInt(1))),
		Schema: load.Schema})
	fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{filt.ID},
		Exprs:  []*expr.Expr{expr.ColIdx(0), expr.Binary("*", expr.ColIdx(0), expr.Lit(types.NewInt(10)))},
		Schema: types.SchemaFromNames("n", "n10")})
	store := p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out", Inputs: []int{fe.ID},
		Schema: fe.Schema})
	return p, load, store
}

func includeAll(p *physical.Plan) map[int]bool {
	m := make(map[int]bool)
	for _, o := range p.Ops() {
		m[o.ID] = true
	}
	return m
}

func TestLinearPipeline(t *testing.T) {
	p, load, store := buildLinear(t)
	pl := NewPipeline(p, includeAll(p))
	var got []types.Tuple
	if err := pl.SetOutput(store.ID, func(tu types.Tuple) error {
		got = append(got, tu.Clone()) // pipeline tuples are borrowed
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if err := pl.Push(load.ID, types.Tuple{types.NewInt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// 0 and 1 filtered out; 2 and 3 pass and get transformed.
	if len(got) != 2 {
		t.Fatalf("got %d tuples: %v", len(got), got)
	}
	if got[0][1].Int() != 20 || got[1][1].Int() != 30 {
		t.Errorf("transformed = %v", got)
	}
}

func TestSplitTees(t *testing.T) {
	p := physical.NewPlan()
	load := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "in", Schema: types.SchemaFromNames("n")})
	split := p.Add(&physical.Operator{Kind: physical.OpSplit, Inputs: []int{load.ID}, Schema: load.Schema})
	s1 := p.Add(&physical.Operator{Kind: physical.OpStore, Path: "o1", Inputs: []int{split.ID}, Schema: load.Schema})
	filt := p.Add(&physical.Operator{Kind: physical.OpFilter, Inputs: []int{split.ID},
		Pred: expr.Binary("==", expr.ColIdx(0), expr.Lit(types.NewInt(2))), Schema: load.Schema})
	s2 := p.Add(&physical.Operator{Kind: physical.OpStore, Path: "o2", Inputs: []int{filt.ID}, Schema: load.Schema})

	pl := NewPipeline(p, includeAll(p))
	var all, filtered int
	if err := pl.SetOutput(s1.ID, func(types.Tuple) error { all++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetOutput(s2.ID, func(types.Tuple) error { filtered++; return nil }); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if err := pl.Push(load.ID, types.Tuple{types.NewInt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if all != 5 || filtered != 1 {
		t.Errorf("all=%d filtered=%d, want 5/1", all, filtered)
	}
}

func TestUnionMerges(t *testing.T) {
	p := physical.NewPlan()
	l1 := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "a", Schema: types.SchemaFromNames("n")})
	l2 := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "b", Schema: types.SchemaFromNames("n")})
	u := p.Add(&physical.Operator{Kind: physical.OpUnion, Inputs: []int{l1.ID, l2.ID}, Schema: l1.Schema})
	st := p.Add(&physical.Operator{Kind: physical.OpStore, Path: "o", Inputs: []int{u.ID}, Schema: l1.Schema})

	pl := NewPipeline(p, includeAll(p))
	var n int
	if err := pl.SetOutput(st.ID, func(types.Tuple) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := pl.Push(l1.ID, types.Tuple{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := pl.Push(l2.ID, types.Tuple{types.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("union delivered %d, want 2", n)
	}
}

func TestMultipleOutputsOnOneOperator(t *testing.T) {
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "a", Schema: types.SchemaFromNames("n")})
	st := p.Add(&physical.Operator{Kind: physical.OpStore, Path: "o", Inputs: []int{l.ID}, Schema: l.Schema})
	pl := NewPipeline(p, includeAll(p))
	var a, b int
	if err := pl.SetOutput(st.ID, func(types.Tuple) error { a++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetOutput(st.ID, func(types.Tuple) error { b++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := pl.Push(l.ID, types.Tuple{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 1 {
		t.Errorf("outputs fired %d/%d times", a, b)
	}
}

func TestValidateCatchesDeadEnds(t *testing.T) {
	p, _, _ := buildLinear(t)
	pl := NewPipeline(p, includeAll(p))
	if err := pl.Validate(); err == nil {
		t.Error("store without output should fail validation")
	}
}

func TestPushErrors(t *testing.T) {
	p, _, _ := buildLinear(t)
	pl := NewPipeline(p, includeAll(p))
	if err := pl.Push(999, types.Tuple{}); err == nil {
		t.Error("push into unknown op should fail")
	}
	if err := pl.SetOutput(999, func(types.Tuple) error { return nil }); err == nil {
		t.Error("SetOutput on unknown op should fail")
	}
	if err := pl.PushOutputOf(999, types.Tuple{}); err == nil {
		t.Error("PushOutputOf unknown op should fail")
	}
}

func TestOutputErrorPropagates(t *testing.T) {
	p, load, store := buildLinear(t)
	pl := NewPipeline(p, includeAll(p))
	wantErr := fmt.Errorf("disk full")
	if err := pl.SetOutput(store.ID, func(types.Tuple) error { return wantErr }); err != nil {
		t.Fatal(err)
	}
	if err := pl.Push(load.ID, types.Tuple{types.NewInt(5)}); err == nil {
		t.Error("output error swallowed")
	}
}

func TestPushOutputOfBypassesEvaluation(t *testing.T) {
	// Simulate the reduce side: push the blocking op's outputs downstream.
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "a", Schema: types.SchemaFromNames("k", "v")})
	g := p.Add(&physical.Operator{Kind: physical.OpGroup, Inputs: []int{l.ID},
		Keys: [][]*expr.Expr{{expr.ColIdx(0)}}})
	fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{g.ID},
		Exprs:  []*expr.Expr{expr.ColIdx(0), expr.Call("COUNT", expr.ColIdx(1))},
		Schema: types.SchemaFromNames("group", "cnt")})
	st := p.Add(&physical.Operator{Kind: physical.OpStore, Path: "o", Inputs: []int{fe.ID}, Schema: fe.Schema})

	include := map[int]bool{g.ID: true, fe.ID: true, st.ID: true}
	pl := NewPipeline(p, include)
	var got []types.Tuple
	if err := pl.SetOutput(st.ID, func(tu types.Tuple) error { got = append(got, tu.Clone()); return nil }); err != nil {
		t.Fatal(err)
	}
	bag := types.BagOf([]types.Tuple{
		{types.NewString("a"), types.NewInt(1)},
		{types.NewString("a"), types.NewInt(2)},
	}...)
	if err := pl.PushOutputOf(g.ID, types.Tuple{types.NewString("a"), types.NewBag(bag)}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][1].Int() != 2 {
		t.Errorf("grouped count = %v", got)
	}
}

func TestBlockingOpInPipelineFails(t *testing.T) {
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: "a", Schema: types.SchemaFromNames("k")})
	d := p.Add(&physical.Operator{Kind: physical.OpDistinct, Inputs: []int{l.ID}, Schema: l.Schema})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: "o", Inputs: []int{d.ID}, Schema: l.Schema})
	pl := NewPipeline(p, includeAll(p))
	if err := pl.Push(l.ID, types.Tuple{types.NewInt(1)}); err == nil {
		t.Error("pushing through a blocking operator should fail")
	}
}

func TestEvalForeachNestedDistinctAndFilter(t *testing.T) {
	inner := types.NewSchema(types.Field{Name: "action", Kind: types.KindInt})
	grouped := types.NewSchema(
		types.Field{Name: "group", Kind: types.KindString},
		types.Field{Name: "C", Kind: types.KindBag, Sub: &inner},
	)
	// foreach grouped { dst = distinct C; pos = filter C by action > 0;
	//                   generate group, COUNT(dst), COUNT(pos) }
	nestedBase, err := expr.Col("C").Bind(grouped)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := expr.Binary(">", expr.Col("action"), expr.Lit(types.NewInt(0))).Bind(inner)
	if err != nil {
		t.Fatal(err)
	}
	extended := grouped
	dstSchema := inner
	extended.Fields = append(extended.Fields,
		types.Field{Name: "dst", Kind: types.KindBag, Sub: &dstSchema},
		types.Field{Name: "pos", Kind: types.KindBag, Sub: &dstSchema})
	genGroup, err := expr.Col("group").Bind(extended)
	if err != nil {
		t.Fatal(err)
	}
	genD, err := expr.Call("COUNT", expr.Col("dst")).Bind(extended)
	if err != nil {
		t.Fatal(err)
	}
	genP, err := expr.Call("COUNT", expr.Col("pos")).Bind(extended)
	if err != nil {
		t.Fatal(err)
	}
	op := &physical.Operator{
		Kind: physical.OpForeach,
		Nested: []physical.NestedDef{
			{Alias: "dst", Base: nestedBase, Op: "distinct"},
			{Alias: "pos", Base: nestedBase.Clone(), Op: "filter", Pred: pred},
		},
		Exprs: []*expr.Expr{genGroup, genD, genP},
	}
	bag := types.BagOf([]types.Tuple{
		{types.NewInt(1)}, {types.NewInt(1)}, {types.NewInt(0)}, {types.NewInt(-2)},
	}...)
	out, err := EvalForeach(op, types.Tuple{types.NewString("g"), types.NewBag(bag)})
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Int() != 3 { // distinct {1,0,-2}
		t.Errorf("distinct count = %v", out[1])
	}
	if out[2].Int() != 2 { // filter >0 keeps the two 1s
		t.Errorf("filter count = %v", out[2])
	}
}

func TestEvalForeachNestedOnNonBag(t *testing.T) {
	op := &physical.Operator{
		Kind:   physical.OpForeach,
		Nested: []physical.NestedDef{{Alias: "x", Base: expr.ColIdx(0), Op: "distinct"}},
		Exprs:  []*expr.Expr{expr.Call("COUNT", expr.ColIdx(1))},
	}
	out, err := EvalForeach(op, types.Tuple{types.NewInt(5)})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Int() != 0 {
		t.Errorf("nested over scalar should act as empty bag, got %v", out[0])
	}
}

func TestEvalKeyAndNulls(t *testing.T) {
	keys := []*expr.Expr{expr.ColIdx(0), expr.ColIdx(1)}
	k := EvalKey(keys, types.Tuple{types.NewInt(1), types.Null()})
	if len(k) != 2 {
		t.Fatalf("key = %v", k)
	}
	if !KeyHasNull(k) {
		t.Error("null component not detected")
	}
	k2 := EvalKey(keys, types.Tuple{types.NewInt(1), types.NewInt(2)})
	if KeyHasNull(k2) {
		t.Error("false null detection")
	}
}
