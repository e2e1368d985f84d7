package physical

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Plan is a DAG of physical operators. Operators reference producers by ID;
// consumer edges are derived. Plans are the unit ReStore matches, rewrites,
// and stores in its repository.
type Plan struct {
	ops    map[int]*Operator
	nextID int
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{ops: make(map[int]*Operator), nextID: 1}
}

// Add inserts the operator, assigning it a fresh ID, and returns it.
func (p *Plan) Add(o *Operator) *Operator {
	o.ID = p.nextID
	p.nextID++
	p.ops[o.ID] = o
	return o
}

// AddWithID inserts an operator preserving its ID (deserialization path).
func (p *Plan) AddWithID(o *Operator) error {
	if _, dup := p.ops[o.ID]; dup {
		return fmt.Errorf("physical: duplicate operator id %d", o.ID)
	}
	p.ops[o.ID] = o
	if o.ID >= p.nextID {
		p.nextID = o.ID + 1
	}
	return nil
}

// Remove deletes the operator with the given ID. Callers must fix up any
// consumer Inputs referencing it.
func (p *Plan) Remove(id int) { delete(p.ops, id) }

// Op returns the operator with the given ID, or nil.
func (p *Plan) Op(id int) *Operator { return p.ops[id] }

// Len returns the number of operators.
func (p *Plan) Len() int { return len(p.ops) }

// Ops returns all operators ordered by ID (deterministic).
func (p *Plan) Ops() []*Operator {
	out := make([]*Operator, 0, len(p.ops))
	for _, id := range sortedIDs(p.ops) {
		out = append(out, p.ops[id])
	}
	return out
}

// Sources returns the Load operators ordered by ID.
func (p *Plan) Sources() []*Operator {
	var out []*Operator
	for _, o := range p.Ops() {
		if o.Kind == OpLoad {
			out = append(out, o)
		}
	}
	return out
}

// Sinks returns the Store operators ordered by ID.
func (p *Plan) Sinks() []*Operator {
	var out []*Operator
	for _, o := range p.Ops() {
		if o.Kind == OpStore {
			out = append(out, o)
		}
	}
	return out
}

// Consumers returns the operators that read the output of id, ordered by ID.
func (p *Plan) Consumers(id int) []*Operator {
	var out []*Operator
	for _, o := range p.Ops() {
		for _, in := range o.Inputs {
			if in == id {
				out = append(out, o)
				break
			}
		}
	}
	return out
}

// Producers returns the input operators of o in argument order.
func (p *Plan) Producers(o *Operator) []*Operator {
	out := make([]*Operator, len(o.Inputs))
	for i, id := range o.Inputs {
		out[i] = p.ops[id]
	}
	return out
}

// ReplaceInput rewires every reference to oldID in o.Inputs to newID.
func (o *Operator) ReplaceInput(oldID, newID int) {
	for i, in := range o.Inputs {
		if in == oldID {
			o.Inputs[i] = newID
		}
	}
}

// TopoOrder returns the operators in a topological order (producers before
// consumers), deterministic across runs. It returns an error when the plan
// contains a cycle or a dangling input reference.
func (p *Plan) TopoOrder() ([]*Operator, error) {
	indeg := make(map[int]int, len(p.ops))
	for _, o := range p.ops {
		for _, in := range o.Inputs {
			if p.ops[in] == nil {
				return nil, fmt.Errorf("physical: operator %s references missing input %d", o, in)
			}
		}
		indeg[o.ID] = len(o.Inputs)
	}
	var ready []int
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sort.Ints(ready)
	var out []*Operator
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, p.ops[id])
		var unlocked []int
		for _, c := range p.Consumers(id) {
			indeg[c.ID]--
			if indeg[c.ID] == 0 {
				unlocked = append(unlocked, c.ID)
			}
		}
		sort.Ints(unlocked)
		ready = append(ready, unlocked...)
		sort.Ints(ready)
	}
	if len(out) != len(p.ops) {
		return nil, fmt.Errorf("physical: plan has a cycle (%d of %d ordered)", len(out), len(p.ops))
	}
	return out, nil
}

// Validate checks structural invariants: acyclicity, input references, input
// arity per operator kind, and that sources are Loads and every non-Store
// operator has at least one consumer.
func (p *Plan) Validate() error {
	order, err := p.TopoOrder()
	if err != nil {
		return err
	}
	for _, o := range order {
		switch o.Kind {
		case OpLoad:
			if len(o.Inputs) != 0 {
				return fmt.Errorf("physical: %s must have no inputs", o)
			}
			if o.Path == "" {
				return fmt.Errorf("physical: %s has empty path", o)
			}
		case OpJoin:
			if len(o.Inputs) != 2 {
				return fmt.Errorf("physical: %s wants 2 inputs, has %d", o, len(o.Inputs))
			}
			if len(o.Keys) != 2 {
				return fmt.Errorf("physical: %s wants 2 key lists, has %d", o, len(o.Keys))
			}
		case OpCoGroup:
			if len(o.Inputs) < 2 || len(o.Keys) != len(o.Inputs) {
				return fmt.Errorf("physical: %s wants >=2 inputs with matching key lists", o)
			}
		case OpUnion:
			if len(o.Inputs) < 2 {
				return fmt.Errorf("physical: %s wants >=2 inputs", o)
			}
		case OpStore:
			if len(o.Inputs) != 1 {
				return fmt.Errorf("physical: %s wants 1 input", o)
			}
			if o.Path == "" {
				return fmt.Errorf("physical: %s has empty path", o)
			}
		default:
			if len(o.Inputs) != 1 {
				return fmt.Errorf("physical: %s wants 1 input, has %d", o, len(o.Inputs))
			}
		}
		if o.Kind != OpStore && len(p.Consumers(o.ID)) == 0 {
			return fmt.Errorf("physical: %s has no consumers and is not a Store", o)
		}
	}
	return nil
}

// Clone deep-copies the plan.
func (p *Plan) Clone() *Plan {
	out := &Plan{ops: make(map[int]*Operator, len(p.ops)), nextID: p.nextID}
	for id, o := range p.ops {
		out.ops[id] = o.Clone()
	}
	return out
}

// CanonKey returns a recursive description of the operator's upstream cone:
// its signature plus the keys of its inputs in argument order. Two operators
// with equal canon keys compute the same function over the same sources.
func (p *Plan) CanonKey(id int) string {
	memo := make(map[int]string)
	return p.canonKey(id, memo)
}

func (p *Plan) canonKey(id int, memo map[int]string) string {
	if k, ok := memo[id]; ok {
		return k
	}
	o := p.ops[id]
	if o == nil {
		return "?"
	}
	// Guard against cycles: mark in-progress.
	memo[id] = "..."
	var sb strings.Builder
	sb.WriteString(o.Signature())
	sb.WriteByte('<')
	for i, in := range o.Inputs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.canonKey(in, memo))
	}
	sb.WriteByte('>')
	k := sb.String()
	memo[id] = k
	return k
}

// Canonical renders a deterministic, alias-free description of the whole
// plan: operators in topological order with their signatures and re-numbered
// input references. Ordering ties are broken by each operator's recursive
// canon key, so two structurally identical plans produce identical canonical
// strings regardless of operator IDs or insertion order. The repository uses
// this to deduplicate entries.
//
// Canonicalization is best-effort for plans containing *duplicated*
// identical subgraphs consumed asymmetrically (general graph isomorphism);
// compiler-produced plans share operators via fan-out instead of duplicating
// them, and a missed tie only costs a missed deduplication, never a wrong
// match.
func (p *Plan) Canonical() string {
	if _, err := p.TopoOrder(); err != nil {
		// Cyclic plans cannot be canonicalized; render something stable.
		return "invalid-plan"
	}
	memo := make(map[int]string)
	for id := range p.ops {
		p.canonKey(id, memo)
	}
	indeg := make(map[int]int, len(p.ops))
	for _, o := range p.ops {
		indeg[o.ID] = len(o.Inputs)
	}
	var ready []int
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	byKey := func(ids []int) {
		sort.Slice(ids, func(i, j int) bool {
			ki, kj := memo[ids[i]], memo[ids[j]]
			if ki != kj {
				return ki < kj
			}
			return ids[i] < ids[j]
		})
	}
	byKey(ready)
	renum := make(map[int]int, len(p.ops))
	var order []*Operator
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		renum[id] = len(order)
		order = append(order, p.ops[id])
		for _, c := range p.Consumers(id) {
			indeg[c.ID]--
			if indeg[c.ID] == 0 {
				ready = append(ready, c.ID)
			}
		}
		byKey(ready)
	}
	var sb strings.Builder
	for i, o := range order {
		if i > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "%d:%s<-[", i, o.Signature())
		refs := canonicalRefs(o, renum, memo)
		for j, ref := range refs {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", ref)
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// canonicalRefs renders an operator's renumbered input references. Input
// positions whose producers have identical canon keys are interchangeable
// (the cones compute the same data), so their references are sorted among
// themselves; this makes the canonical form independent of which of two
// identical subgraphs was inserted first (e.g. a self-join of one source).
func canonicalRefs(o *Operator, renum map[int]int, memo map[int]string) []int {
	refs := make([]int, len(o.Inputs))
	byKey := make(map[string][]int) // canon key -> input positions
	for j, in := range o.Inputs {
		refs[j] = renum[in]
		byKey[memo[in]] = append(byKey[memo[in]], j)
	}
	for _, positions := range byKey {
		if len(positions) < 2 {
			continue
		}
		vals := make([]int, len(positions))
		for i, pos := range positions {
			vals[i] = refs[pos]
		}
		sort.Ints(vals)
		for i, pos := range positions {
			refs[pos] = vals[i]
		}
	}
	return refs
}

// String renders the plan for diagnostics.
func (p *Plan) String() string {
	var sb strings.Builder
	for _, o := range p.Ops() {
		fmt.Fprintf(&sb, "%s <- %v\n", o, o.Inputs)
	}
	return sb.String()
}

// planJSON is the serialized form.
type planJSON struct {
	Ops []*Operator `json:"ops"`
}

// MarshalJSON implements json.Marshaler.
func (p *Plan) MarshalJSON() ([]byte, error) {
	return json.Marshal(planJSON{Ops: p.Ops()})
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var j planJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	p.ops = make(map[int]*Operator, len(j.Ops))
	p.nextID = 1
	for _, o := range j.Ops {
		if o == nil {
			return fmt.Errorf("physical: null operator")
		}
		if err := p.AddWithID(o); err != nil {
			return err
		}
	}
	return nil
}

// ReachableFrom returns the set of operator IDs reachable by following
// producer edges backwards from the given operator (inclusive): the
// "upstream cone" that computes its output.
func (p *Plan) ReachableFrom(id int) map[int]bool {
	seen := make(map[int]bool)
	var walk func(int)
	walk = func(cur int) {
		if seen[cur] {
			return
		}
		seen[cur] = true
		o := p.ops[cur]
		if o == nil {
			return
		}
		for _, in := range o.Inputs {
			walk(in)
		}
	}
	walk(id)
	return seen
}

// ExtractPrefix builds a standalone plan containing the upstream cone of the
// operator with the given ID, with a Store appended writing to storePath.
// The result is the "sub-job" plan the paper materializes and registers in
// the repository (§4): a complete MapReduce job from Loads up to and
// including the operator, finished by a Store.
func (p *Plan) ExtractPrefix(id int, storePath string) (*Plan, error) {
	root := p.ops[id]
	if root == nil {
		return nil, fmt.Errorf("physical: no operator %d", id)
	}
	cone := p.ReachableFrom(id)
	out := NewPlan()
	// Preserve relative order via ascending-ID insertion, remapping IDs.
	remap := make(map[int]int, len(cone))
	for _, oldID := range sortedKeys(cone) {
		op := p.ops[oldID].Clone()
		// Splits inside the cone may reference consumers outside it; a
		// prefix plan treats a Split as transparent (it is a tee), so we
		// drop it and splice its producer through.
		out.Add(op)
		remap[oldID] = op.ID
	}
	for _, oldID := range sortedKeys(cone) {
		op := out.ops[remap[oldID]]
		for i, in := range op.Inputs {
			op.Inputs[i] = remap[in]
		}
	}
	// Splice out Split tees: they don't change data.
	for _, o := range out.Ops() {
		if o.Kind != OpSplit {
			continue
		}
		producer := o.Inputs[0]
		for _, c := range out.Consumers(o.ID) {
			c.ReplaceInput(o.ID, producer)
		}
		if remap[id] == o.ID {
			remap[id] = producer
		}
		out.Remove(o.ID)
	}
	store := out.Add(&Operator{
		Kind:   OpStore,
		Path:   storePath,
		Inputs: []int{remap[id]},
		Schema: p.ops[id].Schema,
	})
	_ = store
	return out, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
