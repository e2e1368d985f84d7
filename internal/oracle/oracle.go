// Package oracle is a test-only reference for what a query computes. Eval
// walks a bound physical plan straight over in-memory tables: nested-loop
// joins, groups found by CompareTuples equality, sort.SliceStable for ORDER,
// and its own evaluator for the expression subset the generator emits. It
// shares no execution code with the system — no expr.Eval, tuple codec,
// combiner, MapReduce compiler or engine — so a bug in any of those shows up
// as a difference from its rows. Gen draws the scripts (see gen.go).
//
// Only tests may import this package; make check fails if any other file
// does.
package oracle

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/piglatin"
	"repro/internal/types"
)

// Table is one input data set: its rows as written to the DFS, split into
// Parts partitions the way dfs.FS.WritePartitioned splits them.
type Table struct {
	Path   string
	Decl   string // the column list a LOAD ... AS names the table with
	Schema types.Schema
	Rows   []types.Tuple
	Parts  int
}

// readOrder returns the rows in the order a scan of the DFS file yields
// them: row i sits in partition i mod Parts, and partitions are read in
// order.
func (tb Table) readOrder() []types.Tuple {
	n := tb.Parts
	if n < 1 {
		n = 1
	}
	out := make([]types.Tuple, 0, len(tb.Rows))
	for p := 0; p < n; p++ {
		for i := p; i < len(tb.Rows); i += n {
			out = append(out, tb.Rows[i])
		}
	}
	return out
}

// Output is what one Store receives.
type Output struct {
	Rows []types.Tuple
	// Sorted holds the sort columns when the Store reads an ORDER, or a
	// LIMIT over one: then the sequence of sort keys is part of the answer.
	Sorted []physical.SortCol
}

// Run parses and plans a script and evaluates it with Eval.
func Run(src string, tables []Table) (map[string]Output, error) {
	script, err := piglatin.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := logical.Build(script)
	if err != nil {
		return nil, err
	}
	return Eval(plan, tables)
}

// Eval evaluates every Store of a bound plan over the tables and returns
// each one's output by path.
func Eval(plan *physical.Plan, tables []Table) (outs map[string]Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("oracle: %v", r)
		}
	}()
	ev := &evaluator{plan: plan, tables: tables, memo: make(map[int][]types.Tuple)}
	outs = make(map[string]Output)
	for _, st := range plan.Sinks() {
		in := plan.Op(st.Inputs[0])
		out := Output{Rows: ev.rows(st.ID)}
		if in.Kind == physical.OpLimit {
			in = plan.Op(in.Inputs[0])
		}
		if in.Kind == physical.OpOrder {
			out.Sorted = in.SortCols
		}
		outs[st.Path] = out
	}
	return outs, nil
}

type evaluator struct {
	plan   *physical.Plan
	tables []Table
	memo   map[int][]types.Tuple
}

// rows returns the output of operator id, in the order the engine's data
// plane delivers it wherever that order is defined.
func (ev *evaluator) rows(id int) []types.Tuple {
	if out, ok := ev.memo[id]; ok {
		return out
	}
	op := ev.plan.Op(id)
	in := func(i int) []types.Tuple { return ev.rows(op.Inputs[i]) }
	var out []types.Tuple
	switch op.Kind {
	case physical.OpLoad:
		out = ev.load(op.Path)
	case physical.OpStore, physical.OpSplit:
		out = in(0)
	case physical.OpUnion:
		for i := range op.Inputs {
			out = append(out, in(i)...)
		}
	case physical.OpFilter:
		for _, t := range in(0) {
			if truthy(eval(op.Pred, t)) {
				out = append(out, t)
			}
		}
	case physical.OpForeach:
		if len(op.Nested) > 0 {
			panic("nested foreach is outside the oracle's subset")
		}
		for _, t := range in(0) {
			row := make(types.Tuple, len(op.Exprs))
			for i, e := range op.Exprs {
				row[i] = eval(e, t)
			}
			out = append(out, row)
		}
	case physical.OpJoin:
		// Null keys never match.
		for _, l := range in(0) {
			kl := keyOf(op.Keys[0], l)
			if hasNull(kl) {
				continue
			}
			for _, r := range in(1) {
				if kr := keyOf(op.Keys[1], r); !hasNull(kr) && types.CompareTuples(kl, kr) == 0 {
					out = append(out, append(append(types.Tuple{}, l...), r...))
				}
			}
		}
	case physical.OpGroup, physical.OpCoGroup:
		out = ev.group(op)
	case physical.OpDistinct:
		// The first row of each equal class is the one kept.
		for _, t := range in(0) {
			if !containsTuple(out, t) {
				out = append(out, t)
			}
		}
	case physical.OpOrder:
		out = append(out, in(0)...)
		sort.SliceStable(out, func(i, j int) bool { return compareSort(op.SortCols, out[i], out[j]) < 0 })
	case physical.OpLimit:
		out = in(0)
		if int64(len(out)) > op.N {
			out = out[:op.N]
		}
	default:
		panic(fmt.Sprintf("operator %s is outside the oracle's subset", op.Kind))
	}
	ev.memo[id] = out
	return out
}

func (ev *evaluator) load(path string) []types.Tuple {
	for _, tb := range ev.tables {
		if tb.Path == path {
			return tb.readOrder()
		}
	}
	panic(fmt.Sprintf("no table %q", path))
}

// group evaluates GROUP (one input) and COGROUP (several): one output row
// per class of CompareTuples-equal keys, in order of first appearance, with
// the first key seen as the group value and each input's rows in a bag in
// input order. As in Pig, a COGROUP key holding a null is never equal to a
// key from another input, so each input's null-keyed rows form their own
// group.
func (ev *evaluator) group(op *physical.Operator) []types.Tuple {
	type class struct {
		key   types.Tuple
		input int // the input a null-keyed COGROUP class belongs to; -1 otherwise
		bags  []*types.Bag
	}
	var classes []*class
	for i := range op.Inputs {
		var keys []*expr.Expr
		if len(op.Keys) > i {
			keys = op.Keys[i]
		}
		for _, t := range ev.rows(op.Inputs[i]) {
			k := keyOf(keys, t)
			owner := -1
			if op.Kind == physical.OpCoGroup && hasNull(k) {
				owner = i
			}
			var c *class
			for _, cand := range classes {
				if cand.input == owner && types.CompareTuples(cand.key, k) == 0 {
					c = cand
					break
				}
			}
			if c == nil {
				c = &class{key: k, input: owner, bags: make([]*types.Bag, len(op.Inputs))}
				for b := range c.bags {
					c.bags[b] = types.BagOf()
				}
				classes = append(classes, c)
			}
			c.bags[i].Add(t)
		}
	}
	out := make([]types.Tuple, 0, len(classes))
	for _, c := range classes {
		var gv types.Value
		switch {
		case op.Kind == physical.OpGroup && (len(op.Keys) == 0 || len(op.Keys[0]) == 0):
			gv = types.NewString("all")
		case len(c.key) == 1:
			gv = c.key[0]
		default:
			gv = types.NewTuple(c.key)
		}
		row := types.Tuple{gv}
		for _, b := range c.bags {
			row = append(row, types.NewBag(b))
		}
		out = append(out, row)
	}
	return out
}

func keyOf(keys []*expr.Expr, t types.Tuple) types.Tuple {
	k := make(types.Tuple, len(keys))
	for i, e := range keys {
		k[i] = eval(e, t)
	}
	return k
}

func hasNull(k types.Tuple) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}

func containsTuple(ts []types.Tuple, t types.Tuple) bool {
	for _, u := range ts {
		if types.CompareTuples(u, t) == 0 {
			return true
		}
	}
	return false
}

// compareSort orders two rows by ORDER's sort columns; a column past the
// end of a row sorts as null.
func compareSort(cols []physical.SortCol, a, b types.Tuple) int {
	at := func(t types.Tuple, i int) types.Value {
		if i < len(t) {
			return t[i]
		}
		return types.Null()
	}
	for _, sc := range cols {
		c := types.Compare(at(a, sc.Index), at(b, sc.Index))
		if sc.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// truthy is the boolean reading of a value: only true is true, so a null
// predicate drops its row.
func truthy(v types.Value) bool { return v.Kind() == types.KindBool && v.Bool() }

// eval is the oracle's expression evaluator. A null or mistyped operand
// yields null; and, or and not read their operands with truthy.
func eval(e *expr.Expr, t types.Tuple) types.Value {
	switch e.Op {
	case expr.OpCol:
		if e.Index < 0 || e.Index >= len(t) {
			return types.Null()
		}
		return t[e.Index]
	case expr.OpLit:
		return e.Lit
	case expr.OpUnary:
		v := eval(e.Args[0], t)
		switch e.Sym {
		case "not":
			return types.NewBool(!truthy(v))
		case "neg":
			switch v.Kind() {
			case types.KindInt:
				return types.NewInt(-v.Int())
			case types.KindFloat:
				return types.NewFloat(-v.Float())
			}
			return types.Null()
		}
	case expr.OpBinary:
		return binary(e.Sym, eval(e.Args[0], t), eval(e.Args[1], t))
	case expr.OpCall:
		if len(e.Args) == 1 {
			if v := eval(e.Args[0], t); v.Kind() == types.KindBag {
				return aggregate(e.Name, v.Bag().Tuples())
			}
			return types.Null()
		}
	case expr.OpBagProj:
		base := eval(e.Args[0], t)
		if base.Kind() != types.KindBag {
			return types.Null()
		}
		out := types.BagOf()
		for _, row := range base.Bag().Tuples() {
			if e.Index >= 0 && e.Index < len(row) {
				out.Add(types.Tuple{row[e.Index]})
			}
		}
		return types.NewBag(out)
	}
	panic(fmt.Sprintf("expression %s is outside the oracle's subset", e.Canonical()))
}

func binary(sym string, l, r types.Value) types.Value {
	switch sym {
	case "and":
		return types.NewBool(truthy(l) && truthy(r))
	case "or":
		return types.NewBool(truthy(l) || truthy(r))
	case "==", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return types.Null()
		}
		c := types.Compare(l, r)
		switch sym {
		case "==":
			return types.NewBool(c == 0)
		case "!=":
			return types.NewBool(c != 0)
		case "<":
			return types.NewBool(c < 0)
		case "<=":
			return types.NewBool(c <= 0)
		case ">":
			return types.NewBool(c > 0)
		default:
			return types.NewBool(c >= 0)
		}
	}
	// Arithmetic: int with int stays int; any other pair of numbers
	// computes in float64; dividing by zero yields null.
	a, okA := l.AsFloat()
	b, okB := r.AsFloat()
	if !okA || !okB || ((sym == "/" || sym == "%") && b == 0) {
		return types.Null()
	}
	ints := l.Kind() == types.KindInt && r.Kind() == types.KindInt
	switch {
	case sym == "+" && ints:
		return types.NewInt(l.Int() + r.Int())
	case sym == "+":
		return types.NewFloat(a + b)
	case sym == "-" && ints:
		return types.NewInt(l.Int() - r.Int())
	case sym == "-":
		return types.NewFloat(a - b)
	case sym == "*" && ints:
		return types.NewInt(l.Int() * r.Int())
	case sym == "*":
		return types.NewFloat(a * b)
	case sym == "/" && ints:
		return types.NewInt(l.Int() / r.Int())
	case sym == "/":
		return types.NewFloat(a / b)
	case sym == "%" && ints:
		return types.NewInt(l.Int() % r.Int())
	case sym == "%":
		return types.NewFloat(math.Mod(a, b))
	}
	panic(fmt.Sprintf("operator %q is outside the oracle's subset", sym))
}

// aggregate folds a bag with Pig's aggregate semantics over each tuple's
// first field: COUNT counts tuples; SUM, MIN, MAX and AVG skip nulls and
// yield null when nothing is left; SUM stays an exact int until a double
// joins; MIN and MAX keep the first of equal values.
func aggregate(name string, bag []types.Tuple) types.Value {
	if name == "COUNT" {
		return types.NewInt(int64(len(bag)))
	}
	acc := types.Null()
	var total float64
	var n int
	for _, t := range bag {
		if len(t) == 0 || t[0].IsNull() {
			continue
		}
		v := t[0]
		switch name {
		case "SUM", "AVG":
			f, ok := v.AsFloat()
			if !ok {
				continue
			}
			total += f
			n++
			switch {
			case v.Kind() == types.KindInt && acc.Kind() != types.KindFloat:
				var base int64
				if !acc.IsNull() {
					base = acc.Int()
				}
				acc = types.NewInt(base + v.Int())
			default:
				prev, _ := acc.AsFloat()
				acc = types.NewFloat(prev + f)
			}
		case "MIN", "MAX":
			c := 0
			if !acc.IsNull() {
				c = types.Compare(v, acc)
			}
			if acc.IsNull() || (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				acc = v
			}
		default:
			panic(fmt.Sprintf("function %s is outside the oracle's subset", name))
		}
	}
	if name == "AVG" {
		if n == 0 {
			return types.Null()
		}
		return types.NewFloat(total / float64(n))
	}
	return acc
}

// Diff checks the rows a Store holds against the oracle's: as a multiset of
// rows with bag contents sorted and numbers compared by value, as
// types.Compare compares them; and, for an ORDER output, the sequence of
// sort keys. It returns nil when they agree.
func Diff(want Output, got []types.Tuple) error {
	w, g := canon(want.Rows), canon(got)
	sort.Strings(w)
	sort.Strings(g)
	if err := diffLines(w, g); err != nil {
		return err
	}
	if want.Sorted == nil {
		return nil
	}
	keys := func(rows []types.Tuple) []string {
		out := make([]string, len(rows))
		for i, t := range rows {
			k := make(types.Tuple, len(want.Sorted))
			for j, sc := range want.Sorted {
				if sc.Index < len(t) {
					k[j] = t[sc.Index]
				}
			}
			out[i] = render(k, false)
		}
		return out
	}
	if err := diffLines(keys(want.Rows), keys(got)); err != nil {
		return fmt.Errorf("sort order: %w", err)
	}
	return nil
}

// DiffExact checks rows exactly: each value of the same kind, each bag in
// the same order. ordered says the row order is defined too; otherwise the
// rows are compared as a multiset.
func DiffExact(want, got []types.Tuple, ordered bool) error {
	w, g := exact(want), exact(got)
	if !ordered {
		sort.Strings(w)
		sort.Strings(g)
	}
	return diffLines(w, g)
}

func diffLines(want, got []string) error {
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Errorf("%d rows, want %d; first difference at row %d: got %s, want %s",
				len(got), len(want), i, g, w)
		}
	}
	return nil
}

// canon renders rows for a comparison up to what Pig leaves open: numbers
// by value (int 3 and double 3.0 are one value, as Compare has it) and
// bags as sorted multisets.
func canon(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, t := range rows {
		out[i] = render(t, false)
	}
	return out
}

// exact renders rows with each value's kind and each bag's order.
func exact(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, t := range rows {
		out[i] = render(t, true)
	}
	return out
}

func render(t types.Tuple, exact bool) string {
	var sb strings.Builder
	renderTuple(&sb, t, exact)
	return sb.String()
}

func renderTuple(sb *strings.Builder, t types.Tuple, exact bool) {
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteByte(',')
		}
		renderValue(sb, v, exact)
	}
	sb.WriteByte(')')
}

func renderValue(sb *strings.Builder, v types.Value, exact bool) {
	switch v.Kind() {
	case types.KindNull:
		sb.WriteString("null")
	case types.KindBool:
		sb.WriteString(strconv.FormatBool(v.Bool()))
	case types.KindInt, types.KindFloat:
		f, _ := v.AsFloat()
		switch {
		case exact && v.Kind() == types.KindInt:
			sb.WriteString(strconv.FormatInt(v.Int(), 10))
		case exact:
			sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64) + "d")
		default:
			sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		}
	case types.KindString:
		sb.WriteString(strconv.Quote(v.Str()))
	case types.KindTuple:
		renderTuple(sb, v.Tuple(), exact)
	case types.KindBag:
		parts := make([]string, v.Bag().Len())
		for i, t := range v.Bag().Tuples() {
			parts[i] = render(t, exact)
		}
		if !exact {
			sort.Strings(parts)
		}
		sb.WriteString("{" + strings.Join(parts, ",") + "}")
	}
}
