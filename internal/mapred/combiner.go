package mapred

import (
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/types"
)

// Combiner support. Pig evaluates algebraic aggregates (COUNT, SUM, MIN,
// MAX) with Hadoop combiners: map tasks pre-aggregate per group key and ship
// one partial record per key instead of the full bag. The engine applies the
// same optimization when a job's plan has the shape
//
//	Group -> Foreach(only group-key refs and algebraic aggregates) -> ...
//
// and the Group's output is not consumed by anything else — in particular, a
// ReStore-injected Store after the Group forces the full bags to be shipped
// and disables the combiner, which is precisely why the paper observes a
// large materialization overhead for group-heavy queries like L6.

// combAgg is one output column of the combined Foreach: the group key
// (fold nil), or an algebraic aggregate from the expression function table
// folding each grouped tuple through Fold.StepField: field proj for
// AGG(C.$proj), the first field for AGG(C) (proj -1).
type combAgg struct {
	fold *expr.Fold
	proj int
}

// combineSpec describes a combinable Group->Foreach pair.
type combineSpec struct {
	group   *physical.Operator
	foreach *physical.Operator
	aggs    []combAgg
}

// detectCombiner returns the combine plan for the job, or nil when the job
// is not combinable.
func detectCombiner(job *Job) *combineSpec {
	g := job.Blocking()
	if g == nil || g.Kind != physical.OpGroup {
		return nil
	}
	consumers := job.Plan.Consumers(g.ID)
	if len(consumers) != 1 || consumers[0].Kind != physical.OpForeach {
		return nil
	}
	fe := consumers[0]
	if len(fe.Nested) > 0 {
		return nil
	}
	spec := &combineSpec{group: g, foreach: fe}
	for _, e := range fe.Exprs {
		agg, ok := classifyCombExpr(e)
		if !ok {
			return nil
		}
		spec.aggs = append(spec.aggs, agg)
	}
	return spec
}

func classifyCombExpr(e *expr.Expr) (combAgg, bool) {
	// Group-key reference: column 0 of the grouped schema.
	if e.Op == expr.OpCol {
		return combAgg{}, e.Index == 0
	}
	fold := e.Fold()
	if fold == nil || len(e.Args) != 1 {
		return combAgg{}, false
	}
	// An aggregate folds the first field of each tuple of its bag argument
	// (the grouped tuples), or the projected field of a projection of it.
	switch arg := e.Args[0]; {
	case arg.Op == expr.OpCol && arg.Index == 1:
		return combAgg{fold: fold, proj: -1}, true
	case arg.Op == expr.OpBagProj && arg.Args[0].Op == expr.OpCol && arg.Args[0].Index == 1 && arg.Index >= 0:
		return combAgg{fold: fold, proj: arg.Index}, true
	}
	return combAgg{}, false
}

// partialState accumulates one map task's partials for one group key.
type partialState struct {
	key  types.Tuple
	vals []types.Value // one per agg (key slots stay null)
}

// combAccumulator is the per-map-task combiner.
type combAccumulator struct {
	spec    *combineSpec
	states  map[string]*partialState
	order   []string // deterministic flush order (insertion)
	scratch []byte   // reused key-encoding buffer
}

func newCombAccumulator(spec *combineSpec) *combAccumulator {
	return &combAccumulator{spec: spec, states: make(map[string]*partialState)}
}

// add folds one pre-shuffle tuple into the partial for its key. The key may
// alias a caller-owned scratch tuple: add encodes it into a reused buffer
// for the map probe (the compiler elides the string conversion in map
// lookups) and clones both the encoded string and the tuple only when the
// key is seen for the first time.
func (a *combAccumulator) add(key types.Tuple, t types.Tuple) {
	a.scratch = types.EncodeTuple(a.scratch[:0], key)
	st, ok := a.states[string(a.scratch)]
	if !ok {
		ks := string(a.scratch)
		st = &partialState{key: key.Clone(), vals: make([]types.Value, len(a.spec.aggs))}
		for i, agg := range a.spec.aggs {
			if agg.fold != nil {
				st.vals[i] = agg.fold.Zero
			}
		}
		a.states[ks] = st
		a.order = append(a.order, ks)
	}
	for i, agg := range a.spec.aggs {
		if agg.fold != nil {
			st.vals[i] = agg.fold.StepField(st.vals[i], t, agg.proj)
		}
	}
}

// mergePartials combines two partial tuples (reduce side).
func (s *combineSpec) mergePartials(acc, v types.Tuple) types.Tuple {
	out := make(types.Tuple, len(acc)) // key slots stay null
	for i, agg := range s.aggs {
		if agg.fold != nil {
			out[i] = agg.fold.Merge(acc[i], v[i])
		}
	}
	return out
}

// finalize renders the Foreach's output tuple for one key from the merged
// partials.
func (s *combineSpec) finalize(key types.Tuple, merged types.Tuple) types.Tuple {
	out := make(types.Tuple, len(s.aggs))
	for i, agg := range s.aggs {
		if agg.fold == nil {
			out[i] = groupValue(s.group, key)
		} else {
			out[i] = merged[i]
		}
	}
	return out
}
