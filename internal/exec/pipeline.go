// Package exec evaluates the non-blocking portion of a physical plan inside
// a single map or reduce task. A Pipeline is a push-based dataflow: the task
// pushes input tuples into entry operators (Loads in the map phase, the
// blocking operator's output in the reduce phase); tuples stream through
// Foreach/Filter/Split/Union nodes and arrive at registered outputs (shuffle
// collectors or DFS store writers).
//
// Every tuple that moves through a pipeline is borrowed: it is valid only
// until the Push or PushOutputOf call that delivered it returns. A Foreach
// node evaluates into an output tuple it reuses for the next push, and the
// caller may reuse the tuple it pushed; an output that keeps a tuple past
// its call keeps a Clone of it.
package exec

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/types"
)

// Output receives the tuples produced by one operator of the pipeline.
type Output func(t types.Tuple) error

// Pipeline is a compiled per-task executor over a subset of a plan's
// operators. It is not safe for concurrent use: each task builds its own.
type Pipeline struct {
	plan    *physical.Plan
	include map[int]bool
	nodes   map[int]*node
}

type node struct {
	op        *physical.Operator
	consumers []*node
	outputs   []Output
	// work and out are a Foreach node's scratch: the input widened by its
	// nested bags, and the output tuple it delivers, reused across pushes.
	work, out types.Tuple
}

// NewPipeline compiles the operators in include (a subset of plan op IDs,
// closed under the edges the task executes). Tuples are delivered to every
// consumer inside the subset and to every output registered with SetOutput.
func NewPipeline(plan *physical.Plan, include map[int]bool) *Pipeline {
	p := &Pipeline{plan: plan, include: include, nodes: make(map[int]*node)}
	for id := range include {
		if op := plan.Op(id); op != nil {
			p.nodes[id] = &node{op: op}
		}
	}
	for id, n := range p.nodes {
		for _, c := range plan.Consumers(id) {
			if include[c.ID] {
				n.consumers = append(n.consumers, p.nodes[c.ID])
			}
		}
		// Deterministic consumer order.
		sort.Slice(n.consumers, func(i, j int) bool { return n.consumers[i].op.ID < n.consumers[j].op.ID })
	}
	return p
}

// SetOutput registers a callback receiving the output tuples of the given
// operator. Multiple callbacks may be registered on the same operator (e.g.
// a self-join shuffles the same producer under two tags).
func (p *Pipeline) SetOutput(opID int, out Output) error {
	n := p.nodes[opID]
	if n == nil {
		return fmt.Errorf("exec: operator %d not in pipeline", opID)
	}
	n.outputs = append(n.outputs, out)
	return nil
}

// Validate checks that every included operator either has a consumer inside
// the subset or a registered output, so no tuples silently vanish.
func (p *Pipeline) Validate() error {
	for id, n := range p.nodes {
		if len(n.consumers) == 0 && len(n.outputs) == 0 {
			return fmt.Errorf("exec: operator %d (%s) has no consumers and no outputs", id, n.op.Kind)
		}
	}
	return nil
}

// Push feeds one tuple into the operator with the given ID. For Load
// operators the tuple is the loaded record; for other entry points it is the
// operator's input.
func (p *Pipeline) Push(opID int, t types.Tuple) error {
	n := p.nodes[opID]
	if n == nil {
		return fmt.Errorf("exec: push into unknown operator %d", opID)
	}
	return p.process(n, t)
}

// PushOutputOf delivers a tuple as if it were the *output* of the given
// operator, bypassing its evaluation. The reduce phase uses this to inject
// the blocking operator's results into the downstream pipeline.
func (p *Pipeline) PushOutputOf(opID int, t types.Tuple) error {
	n := p.nodes[opID]
	if n == nil {
		return fmt.Errorf("exec: push-output into unknown operator %d", opID)
	}
	return p.deliver(n, t)
}

// process evaluates the node's operator on t, then delivers results.
func (p *Pipeline) process(n *node, t types.Tuple) error {
	switch n.op.Kind {
	case physical.OpLoad, physical.OpUnion, physical.OpSplit, physical.OpStore:
		// Pass-through operators: Load emits records as-is (the task read
		// them from the DFS), Union merges its producers, Split tees, and
		// Store forwards to its registered writer output.
		return p.deliver(n, t)
	case physical.OpFilter:
		if n.op.Pred.Eval(t).Truthy() {
			return p.deliver(n, t)
		}
		return nil
	case physical.OpForeach:
		n.work, n.out = evalForeach(n.op, t, n.work, n.out)
		return p.deliver(n, n.out)
	default:
		return fmt.Errorf("exec: operator %s is blocking and cannot run in a pipeline", n.op.Kind)
	}
}

func (p *Pipeline) deliver(n *node, t types.Tuple) error {
	for _, out := range n.outputs {
		if err := out(t); err != nil {
			return err
		}
	}
	for _, c := range n.consumers {
		if err := p.process(c, t); err != nil {
			return err
		}
	}
	return nil
}

// EvalForeach applies a Foreach operator to one input tuple: nested defs
// compute derived bags appended to the tuple, then the generate expressions
// produce the output tuple. It returns a newly allocated tuple; a pipeline's
// Foreach node runs the same kernel into its own scratch.
func EvalForeach(op *physical.Operator, t types.Tuple) (types.Tuple, error) {
	_, out := evalForeach(op, t, nil, make(types.Tuple, len(op.Exprs)))
	return out, nil
}

// evalForeach is EvalForeach's kernel: it widens t by the nested bags in
// work's backing array, evaluates the generate expressions into out's, and
// returns both (either is allocated when nil or too small).
func evalForeach(op *physical.Operator, t, work, out types.Tuple) (types.Tuple, types.Tuple) {
	in := t
	if len(op.Nested) > 0 {
		work = append(slices.Grow(work[:0], len(t)+len(op.Nested)), t...)
		for _, def := range op.Nested {
			bagVal := def.Base.Eval(work)
			if bagVal.Kind() != types.KindBag {
				// Null or scalar: treat as empty bag so aggregates behave.
				work = append(work, types.NewBag(types.BagOf()))
				continue
			}
			work = append(work, applyNested(def, bagVal.Bag()))
		}
		in = work
	}
	out = slices.Grow(out[:0], len(op.Exprs))[:len(op.Exprs)]
	for i, e := range op.Exprs {
		out[i] = e.Eval(in)
	}
	return work, out
}

func applyNested(def physical.NestedDef, in *types.Bag) types.Value {
	switch def.Op {
	case "distinct":
		// Dedupe the sorted copy in place, keeping the first tuple of
		// each run of neighbours that compare equal.
		sorted := make([]types.Tuple, in.Len())
		copy(sorted, in.Tuples())
		sort.Slice(sorted, func(i, j int) bool { return types.CompareTuples(sorted[i], sorted[j]) < 0 })
		n := 0
		var prev types.Tuple
		for i, tu := range sorted {
			if i == 0 || types.CompareTuples(tu, prev) != 0 {
				sorted[n] = tu
				n++
			}
			prev = tu
		}
		return types.NewBag(types.BagOf(sorted[:n]...))
	case "filter":
		if def.Pred == nil {
			return types.NewBag(types.BagOf())
		}
		// Sized to the input once: the bag never grows through appends.
		kept := make([]types.Tuple, 0, in.Len())
		for _, tu := range in.Tuples() {
			if def.Pred.Eval(tu).Truthy() {
				kept = append(kept, tu)
			}
		}
		return types.NewBag(types.BagOf(kept...))
	default: // "ident"
		return types.NewBag(in)
	}
}

// EvalKey evaluates a key-expression list over a tuple, producing the
// shuffle key tuple.
func EvalKey(keys []*expr.Expr, t types.Tuple) types.Tuple {
	return EvalKeyInto(make(types.Tuple, 0, len(keys)), keys, t)
}

// EvalKeyInto evaluates a key-expression list into dst's backing array,
// returning the key tuple. Callers that retain the key across calls must
// Clone it — the engine's combiner path reuses one scratch tuple per map
// task so key evaluation costs no allocation per record.
func EvalKeyInto(dst types.Tuple, keys []*expr.Expr, t types.Tuple) types.Tuple {
	dst = dst[:0]
	for _, k := range keys {
		dst = append(dst, k.Eval(t))
	}
	return dst
}

// KeyHasNull reports whether any component of a key is null. Null join keys
// never match (SQL semantics, which Pig follows for joins).
func KeyHasNull(k types.Tuple) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}
