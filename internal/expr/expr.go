// Package expr implements the expression language used inside physical
// operators: column references, literals, arithmetic, comparisons, boolean
// connectives, scalar functions, aggregate functions over bags, and bag
// projections (C.est_revenue).
//
// Expressions have two lifecycle phases. The parser produces *unbound* trees
// that reference columns by name; the plan builder *binds* them against an
// input schema, resolving every name to a column index. Binding errors
// (unknown column, arity mismatch) surface at compile time; evaluation never
// fails structurally — type mismatches yield null, matching Pig semantics.
//
// Canonical() renders a deterministic, alias-free signature used by ReStore's
// plan matcher to decide operator equivalence: two expressions are equivalent
// iff their canonical strings are equal.
//
// Every operator and function is defined once, in the operator table and
// the function table below. The parser's precedence loop, Canonical, Eval
// and the MapReduce combiner all read those entries, so they cannot drift
// apart on what a symbol means.
package expr

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/types"
)

// Op identifies the node type of an expression.
type Op string

// Expression node types.
const (
	OpCol     Op = "col"     // column reference
	OpLit     Op = "lit"     // literal constant
	OpBinary  Op = "bin"     // binary operator (Sym)
	OpUnary   Op = "un"      // unary operator (Sym)
	OpCall    Op = "call"    // function call (Name)
	OpBagProj Op = "bagproj" // project a field out of a bag column
)

// Expr is one node of an expression tree. A single concrete struct (rather
// than an interface per node type) keeps JSON serialization for the ReStore
// repository trivial.
type Expr struct {
	Op Op `json:"op"`
	// Name holds the unresolved column name for OpCol/OpBagProj and the
	// function name for OpCall.
	Name string `json:"name,omitempty"`
	// Index is the bound column index; -1 while unbound.
	Index int `json:"index"`
	// Lit is the constant payload for OpLit.
	Lit types.Value `json:"lit,omitempty"`
	// Sym is the operator symbol for OpBinary/OpUnary.
	Sym string `json:"sym,omitempty"`
	// Args are the child expressions.
	Args []*Expr `json:"args,omitempty"`

	// op and fn are the table entries of an operator or call node, resolved
	// once when the node is built, bound or decoded.
	op *Operator
	fn *Func
	// fused marks a bound aggregate call over a bag projection,
	// AGG(bag.$i): Eval folds field i straight off the bag (Bag.Column)
	// instead of building the projected bag.
	fused bool
}

// Operator is one entry of the operator table: everything the language
// knows about a unary or binary operator symbol. A prefix operator applies
// only where an operand of at least its Prec is expected; elsewhere its
// spelling is an ordinary identifier.
type Operator struct {
	Sym         string // what a node stores, and what JSON and Canonical() spell
	Spelling    string // Pig Latin source text; keywords match case-insensitively
	Prec        int    // binding power: a higher Prec binds tighter
	Prefix      bool   // a unary prefix operator
	Chains      bool   // left-associative; comparisons do not chain (a < b < c)
	Commutative bool   // Canonical() orders the operands, so a == b matches b == a

	unary  func(types.Value) types.Value
	binary func(l, r types.Value) types.Value
}

// operators is the operator table, loosest-binding first.
var operators = []*Operator{
	{Sym: "or", Spelling: "or", Prec: 1, Chains: true, Commutative: true,
		binary: func(l, r types.Value) types.Value { return types.NewBool(l.Truthy() || r.Truthy()) }},
	{Sym: "and", Spelling: "and", Prec: 2, Chains: true, Commutative: true,
		binary: func(l, r types.Value) types.Value { return types.NewBool(l.Truthy() && r.Truthy()) }},
	{Sym: "not", Spelling: "not", Prec: 3, Prefix: true,
		unary: func(v types.Value) types.Value { return types.NewBool(!v.Truthy()) }},
	{Sym: "==", Spelling: "==", Prec: 4, Commutative: true, binary: compare(func(c int) bool { return c == 0 })},
	{Sym: "!=", Spelling: "!=", Prec: 4, Commutative: true, binary: compare(func(c int) bool { return c != 0 })},
	{Sym: "<", Spelling: "<", Prec: 4, binary: compare(func(c int) bool { return c < 0 })},
	{Sym: "<=", Spelling: "<=", Prec: 4, binary: compare(func(c int) bool { return c <= 0 })},
	{Sym: ">", Spelling: ">", Prec: 4, binary: compare(func(c int) bool { return c > 0 })},
	{Sym: ">=", Spelling: ">=", Prec: 4, binary: compare(func(c int) bool { return c >= 0 })},
	{Sym: "+", Spelling: "+", Prec: 5, Chains: true, Commutative: true, binary: arith(false,
		func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b })},
	{Sym: "-", Spelling: "-", Prec: 5, Chains: true, binary: arith(false,
		func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b })},
	{Sym: "*", Spelling: "*", Prec: 6, Chains: true, Commutative: true, binary: arith(false,
		func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b })},
	{Sym: "/", Spelling: "/", Prec: 6, Chains: true, binary: arith(true,
		func(a, b int64) int64 { return a / b }, func(a, b float64) float64 { return a / b })},
	{Sym: "%", Spelling: "%", Prec: 6, Chains: true, binary: arith(true,
		func(a, b int64) int64 { return a % b }, math.Mod)},
	{Sym: "neg", Spelling: "-", Prec: 7, Prefix: true, unary: negate},
}

// unknownOp stands in for a symbol outside the table (only a hand-built or
// foreign-decoded node carries one); it evaluates to null.
var unknownOp = &Operator{
	unary:  func(types.Value) types.Value { return types.Null() },
	binary: func(_, _ types.Value) types.Value { return types.Null() },
}

// Prefix returns the prefix operator spelled s, or nil.
func Prefix(s string) *Operator {
	return findOp(true, func(op *Operator) bool { return strings.EqualFold(op.Spelling, s) })
}

// Infix returns the binary operator spelled s, or nil.
func Infix(s string) *Operator {
	return findOp(false, func(op *Operator) bool { return strings.EqualFold(op.Spelling, s) })
}

func findOp(prefix bool, match func(*Operator) bool) *Operator {
	for _, op := range operators {
		if op.Prefix == prefix && match(op) {
			return op
		}
	}
	return nil
}

// compare lifts a test on types.Compare into a comparison kernel; a null
// operand yields null.
func compare(test func(int) bool) func(l, r types.Value) types.Value {
	return func(l, r types.Value) types.Value {
		if l.IsNull() || r.IsNull() {
			return types.Null()
		}
		return types.NewBool(test(types.Compare(l, r)))
	}
}

// arith builds an arithmetic kernel: int with int stays int, any other pair
// of numbers (or numeric strings) computes in float64, and a null, a
// non-number or — when divides is set — a zero divisor yields null.
func arith(divides bool, ints func(a, b int64) int64, floats func(a, b float64) float64) func(l, r types.Value) types.Value {
	return func(l, r types.Value) types.Value {
		if l.Kind() == types.KindInt && r.Kind() == types.KindInt {
			if divides && r.Int() == 0 {
				return types.Null()
			}
			return types.NewInt(ints(l.Int(), r.Int()))
		}
		a, okA := types.CoerceFloat(l)
		b, okB := types.CoerceFloat(r)
		if !okA || !okB || (divides && b == 0) {
			return types.Null()
		}
		return types.NewFloat(floats(a, b))
	}
}

func negate(v types.Value) types.Value {
	switch v.Kind() {
	case types.KindInt:
		return types.NewInt(-v.Int())
	case types.KindFloat:
		return types.NewFloat(-v.Float())
	}
	return types.Null()
}

// Func is one entry of the function table. A function has one kernel: one
// for a single argument (any other arity yields null), or many. An
// aggregate's one kernel folds its values over the first field of each
// tuple of the bag; a fused call folds them over one field (Bag.Column).
type Func struct {
	Name      string // the upper-case name a call node stores
	Aggregate bool   // folds a bag to a scalar
	Fold      *Fold  // the algebraic form of COUNT, SUM, MIN and MAX; nil otherwise

	one    func(types.Value) types.Value
	many   func([]types.Value) types.Value
	values func(types.Fields) types.Value // an aggregate's fold over its values
}

// Fold is an algebraic aggregate over the first field of each tuple of a
// bag, or over field i of each for AGG(bag.$i). Eval folds a whole bag with
// Step; the MapReduce combiner folds each map task's values per key with
// StepField and combines the partials with Merge, so both paths compute the
// same value.
type Fold struct {
	Zero  types.Value                                // the partial before any value
	Step  func(acc, v types.Value) types.Value       // folds one value into a partial
	Merge func(acc, partial types.Value) types.Value // combines two partials
}

var (
	countFold = &Fold{Zero: types.NewInt(0), Merge: sum,
		Step: func(acc, _ types.Value) types.Value { return types.NewInt(acc.Int() + 1) }}
	sumFold = &Fold{Step: sum, Merge: sum}
	minFold = &Fold{Step: best(-1), Merge: best(-1)}
	maxFold = &Fold{Step: best(1), Merge: best(1)}
)

// funcs is the function table.
var funcs = []*Func{
	aggregate("COUNT", countFold, countFold.fold),
	aggregate("SUM", sumFold, sumFold.fold),
	aggregate("MIN", minFold, minFold.fold),
	aggregate("MAX", maxFold, maxFold.fold),
	aggregate("AVG", nil, avg),
	{Name: "ISEMPTY", one: onBag(func(b *types.Bag) types.Value { return types.NewBool(b.Len() == 0) })},
	// DISTINCTCOUNT counts the distinct tuples of a bag (PigMix L4's
	// nested distinct + count idiom).
	{Name: "DISTINCTCOUNT", one: onBag(distinctCount)},
	{Name: "SIZE", one: size},
	{Name: "CONCAT", many: concat},
	{Name: "LOWER", one: onString(strings.ToLower)},
	{Name: "UPPER", one: onString(strings.ToUpper)},
	{Name: "ROUND", one: round},
	{Name: "ABS", one: abs},
}

// unknownFunc stands in for a name outside the table; it evaluates to null.
var unknownFunc = &Func{one: func(types.Value) types.Value { return types.Null() }}

// aggregate builds the table entry of an aggregate from its fold over a
// sequence of values.
func aggregate(name string, fold *Fold, values func(types.Fields) types.Value) *Func {
	return &Func{Name: name, Aggregate: true, Fold: fold, values: values,
		one: onBag(func(b *types.Bag) types.Value { return values(b.Firsts()) })}
}

// fold runs Step over vals, starting from Zero.
func (f *Fold) fold(vals types.Fields) types.Value {
	acc := f.Zero
	for vals.Next() {
		acc = f.Step(acc, vals.Value())
	}
	return acc
}

// StepField folds one tuple of a bag into acc as the aggregate call does:
// for AGG(bag.$i) (i >= 0) its field i, skipping a tuple shorter than i+1
// as the projection drops it; for AGG(bag) (i < 0) its first field, null
// for an empty tuple.
func (f *Fold) StepField(acc types.Value, row types.Tuple, i int) types.Value {
	switch {
	case i < 0 && len(row) == 0:
		return f.Step(acc, types.Null())
	case i < 0:
		return f.Step(acc, row[0])
	case i < len(row):
		return f.Step(acc, row[i])
	}
	return acc
}

// sum adds v into acc with Pig semantics: nulls and non-numbers are
// skipped, and an integer sum stays an exact integer until a float joins.
func sum(acc, v types.Value) types.Value {
	f, ok := types.CoerceFloat(v)
	if !ok {
		return acc
	}
	// The null start coerces to 0 either way.
	if v.Kind() == types.KindInt && acc.Kind() != types.KindFloat {
		n, _ := types.CoerceInt(acc)
		return types.NewInt(n + v.Int())
	}
	af, _ := types.CoerceFloat(acc)
	return types.NewFloat(af + f)
}

// best keeps the smaller (dir < 0) or larger (dir > 0) non-null value.
func best(dir int) func(acc, v types.Value) types.Value {
	return func(acc, v types.Value) types.Value {
		if !v.IsNull() && (acc.IsNull() || types.Compare(v, acc)*dir > 0) {
			return v
		}
		return acc
	}
}

// avg is the float64 mean of the numeric values.
func avg(vals types.Fields) types.Value {
	var total float64
	var n int
	for vals.Next() {
		if f, ok := types.CoerceFloat(vals.Value()); ok {
			total += f
			n++
		}
	}
	if n == 0 {
		return types.Null()
	}
	return types.NewFloat(total / float64(n))
}

func distinctCount(b *types.Bag) types.Value {
	tuples := make([]types.Tuple, b.Len())
	copy(tuples, b.Tuples())
	sort.Slice(tuples, func(i, j int) bool { return types.CompareTuples(tuples[i], tuples[j]) < 0 })
	var n int64
	for i := range tuples {
		if i == 0 || types.CompareTuples(tuples[i], tuples[i-1]) != 0 {
			n++
		}
	}
	return types.NewInt(n)
}

func size(v types.Value) types.Value {
	switch v.Kind() {
	case types.KindBag:
		return types.NewInt(int64(v.Bag().Len()))
	case types.KindString:
		return types.NewInt(int64(len(v.Str())))
	case types.KindTuple:
		return types.NewInt(int64(len(v.Tuple())))
	}
	return types.Null()
}

func concat(args []types.Value) types.Value {
	var sb strings.Builder
	for _, a := range args {
		if a.IsNull() {
			return types.Null()
		}
		sb.WriteString(a.String())
	}
	return types.NewString(sb.String())
}

func round(v types.Value) types.Value {
	if f, ok := types.CoerceFloat(v); ok {
		return types.NewInt(int64(math.Round(f)))
	}
	return types.Null()
}

func abs(v types.Value) types.Value {
	switch v.Kind() {
	case types.KindInt:
		if v.Int() < 0 {
			return types.NewInt(-v.Int())
		}
		return v
	case types.KindFloat:
		return types.NewFloat(math.Abs(v.Float()))
	}
	return types.Null()
}

// onBag adapts a kernel over a bag; any other argument yields null.
func onBag(k func(*types.Bag) types.Value) func(types.Value) types.Value {
	return func(v types.Value) types.Value {
		if v.Kind() != types.KindBag {
			return types.Null()
		}
		return k(v.Bag())
	}
}

// onString adapts a string mapping; any other argument yields null.
func onString(k func(string) string) func(types.Value) types.Value {
	return func(v types.Value) types.Value {
		if v.Kind() != types.KindString {
			return types.Null()
		}
		return types.NewString(k(v.Str()))
	}
}

// Col references a column by name (bound later).
func Col(name string) *Expr { return &Expr{Op: OpCol, Name: name, Index: -1} }

// ColIdx references a column by position ($n in Pig Latin).
func ColIdx(i int) *Expr { return &Expr{Op: OpCol, Index: i} }

// Lit wraps a constant.
func Lit(v types.Value) *Expr { return &Expr{Op: OpLit, Lit: v, Index: -1} }

// Binary builds a binary operation.
func Binary(sym string, l, r *Expr) *Expr {
	return (&Expr{Op: OpBinary, Sym: sym, Args: []*Expr{l, r}, Index: -1}).resolve()
}

// Unary builds a unary operation ("not", "neg").
func Unary(sym string, e *Expr) *Expr {
	return (&Expr{Op: OpUnary, Sym: sym, Args: []*Expr{e}, Index: -1}).resolve()
}

// Call builds a function call. Function names are case-insensitive and
// canonicalized to upper case.
func Call(name string, args ...*Expr) *Expr {
	return (&Expr{Op: OpCall, Name: strings.ToUpper(name), Args: args, Index: -1}).resolve()
}

// BagProj projects the named field from each tuple of the bag produced by
// base, yielding a bag of 1-tuples (Pig's C.est_revenue).
func BagProj(base *Expr, field string) *Expr {
	return &Expr{Op: OpBagProj, Name: field, Args: []*Expr{base}, Index: -1}
}

// resolve points an operator or call node at its table entry, so Eval
// never looks a symbol up per record, and fuses an aggregate over a bound
// bag projection.
func (e *Expr) resolve() *Expr {
	switch e.Op {
	case OpBinary, OpUnary:
		e.op = findOp(e.Op == OpUnary, func(op *Operator) bool { return op.Sym == e.Sym })
		if e.op == nil {
			e.op = unknownOp
		}
	case OpCall:
		e.fn = unknownFunc
		for _, f := range funcs {
			if f.Name == e.Name {
				e.fn = f
			}
		}
		e.fused = e.fn.values != nil && len(e.Args) == 1 &&
			e.Args[0].Op == OpBagProj && e.Args[0].Index >= 0
	}
	return e
}

// UnmarshalJSON decodes a node and resolves its table entry: plans read
// back from the repository or off the fleet's wire evaluate like freshly
// built ones.
func (e *Expr) UnmarshalJSON(data []byte) error {
	type plain Expr
	if err := json.Unmarshal(data, (*plain)(e)); err != nil {
		return err
	}
	e.resolve()
	return nil
}

// Clone deep-copies the expression tree.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	out := *e
	out.Args = make([]*Expr, len(e.Args))
	for i, a := range e.Args {
		out.Args[i] = a.Clone()
	}
	return &out
}

// Operator returns the table entry of an operator node, nil for any other
// node.
func (e *Expr) Operator() *Operator { return e.op }

// Fold returns the algebraic form of an aggregate call, nil for any other
// node.
func (e *Expr) Fold() *Fold {
	if e.fn == nil {
		return nil
	}
	return e.fn.Fold
}

// IsAggregateCall reports whether e is a call to an aggregate function.
func (e *Expr) IsAggregateCall() bool {
	return e.Op == OpCall && e.fn.Aggregate
}

// Bind resolves column names against the schema, returning a new bound tree.
// For OpBagProj the field name is resolved inside the bag column's element
// schema (Field.Sub).
func (e *Expr) Bind(schema types.Schema) (*Expr, error) {
	out := e.Clone()
	if err := out.bind(schema); err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Expr) bind(schema types.Schema) error {
	switch e.Op {
	case OpCol:
		if e.Index >= 0 {
			if e.Index >= schema.Len() && schema.Len() > 0 {
				return fmt.Errorf("expr: column $%d out of range for schema %s", e.Index, schema)
			}
			return nil
		}
		ix := schema.IndexOf(e.Name)
		if ix < 0 {
			return fmt.Errorf("expr: unknown column %q in schema %s", e.Name, schema)
		}
		e.Index = ix
		return nil
	case OpLit:
		return nil
	case OpBagProj:
		if err := e.Args[0].bind(schema); err != nil {
			return err
		}
		// Resolve the projected field within the bag's element schema.
		sub := bagElementSchema(e.Args[0], schema)
		if e.Index >= 0 {
			return nil
		}
		if sub == nil {
			return fmt.Errorf("expr: cannot resolve %q: bag column has no element schema", e.Name)
		}
		ix := sub.IndexOf(e.Name)
		if ix < 0 {
			return fmt.Errorf("expr: unknown field %q in bag schema %s", e.Name, sub)
		}
		e.Index = ix
		return nil
	default:
		for _, a := range e.Args {
			if err := a.bind(schema); err != nil {
				return err
			}
		}
		e.resolve()
		return nil
	}
}

// bagElementSchema returns the element schema of the bag a column expression
// refers to, or nil if unknown.
func bagElementSchema(e *Expr, schema types.Schema) *types.Schema {
	if e.Op != OpCol || e.Index < 0 || e.Index >= schema.Len() {
		return nil
	}
	return schema.Fields[e.Index].Sub
}

// Canonical renders the alias-free deterministic signature of the bound
// expression. Unbound columns render by name (used in error paths only).
func (e *Expr) Canonical() string {
	var sb strings.Builder
	e.canonical(&sb)
	return sb.String()
}

func (e *Expr) canonical(sb *strings.Builder) {
	switch e.Op {
	case OpCol:
		if e.Index >= 0 {
			fmt.Fprintf(sb, "$%d", e.Index)
		} else {
			fmt.Fprintf(sb, "col(%s)", e.Name)
		}
	case OpLit:
		fmt.Fprintf(sb, "lit:%s:%s", e.Lit.Kind(), e.Lit.String())
	case OpBinary:
		l, r := e.Args[0].Canonical(), e.Args[1].Canonical()
		if e.op.Commutative && r < l {
			l, r = r, l
		}
		fmt.Fprintf(sb, "(%s %s %s)", l, e.Sym, r)
	case OpUnary:
		fmt.Fprintf(sb, "(%s %s)", e.Sym, e.Args[0].Canonical())
	case OpCall:
		sb.WriteString(e.Name)
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			a.canonical(sb)
		}
		sb.WriteByte(')')
	case OpBagProj:
		if e.Index >= 0 {
			fmt.Fprintf(sb, "%s.$%d", e.Args[0].Canonical(), e.Index)
		} else {
			fmt.Fprintf(sb, "%s.%s", e.Args[0].Canonical(), e.Name)
		}
	}
}

// Eval evaluates the bound expression against a tuple. Type mismatches and
// nulls propagate as null; boolean context treats null as false.
func (e *Expr) Eval(t types.Tuple) types.Value {
	switch e.Op {
	case OpCol:
		if e.Index < 0 || e.Index >= len(t) {
			return types.Null()
		}
		return t[e.Index]
	case OpLit:
		return e.Lit
	case OpBinary:
		return e.op.binary(e.Args[0].Eval(t), e.Args[1].Eval(t))
	case OpUnary:
		return e.op.unary(e.Args[0].Eval(t))
	case OpCall:
		if e.fused {
			proj := e.Args[0]
			base := proj.Args[0].Eval(t)
			if base.Kind() != types.KindBag {
				return types.Null()
			}
			return e.fn.values(base.Bag().Column(proj.Index))
		}
		if e.fn.many == nil {
			if len(e.Args) != 1 {
				return types.Null()
			}
			return e.fn.one(e.Args[0].Eval(t))
		}
		args := make([]types.Value, len(e.Args))
		for i, a := range e.Args {
			args[i] = a.Eval(t)
		}
		return e.fn.many(args)
	case OpBagProj:
		base := e.Args[0].Eval(t)
		if base.Kind() != types.KindBag {
			return types.Null()
		}
		if e.Index < 0 {
			return types.NewBag(types.BagOf())
		}
		bag := base.Bag()
		// One allocation for the spines and one for the values: each
		// 1-column tuple is a window of vals whose capacity ends with it.
		tuples := make([]types.Tuple, 0, bag.Len())
		vals := make([]types.Value, bag.Len())
		for col := bag.Column(e.Index); col.Next(); {
			i := len(tuples)
			vals[i] = col.Value()
			tuples = append(tuples, vals[i:i+1:i+1])
		}
		return types.NewBag(types.BagOf(tuples...))
	default:
		return types.Null()
	}
}

// String renders the expression for diagnostics; identical to Canonical.
func (e *Expr) String() string { return e.Canonical() }
