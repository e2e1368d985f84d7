package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/dfs"
	"repro/internal/types"
)

// Tables returns the seeded table set under prefix:
//   - facts (k:chararray, a:int, b:int, c:chararray, d:double): nulls in k,
//     a and d; d holds quarters, so any sum of them is exact in float64
//     whatever order the engine adds in;
//   - dims (k:chararray, label:chararray): some keys twice, some missing;
//   - ints (n:int, x:int) and doubles (n:double, y:double): int keys and
//     double keys that equal them (3 and 3.0), plus nulls and non-integral
//     doubles, for the int-vs-double join and union.
func Tables(seed int64, prefix string) []Table {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	maybe := func(oneIn int, v types.Value) types.Value {
		if rng.Intn(oneIn) == 0 {
			return types.Null()
		}
		return v
	}
	facts := make([]types.Tuple, 240)
	for i := range facts {
		facts[i] = types.Tuple{
			maybe(20, types.NewString(fmt.Sprintf("k%02d", rng.Intn(20)))),
			maybe(10, types.NewInt(int64(rng.Intn(100)))),
			types.NewInt(int64(rng.Intn(10))),
			types.NewString(fmt.Sprintf("v%d", rng.Intn(5))),
			maybe(10, types.NewFloat(float64(rng.Intn(100))/4)),
		}
	}
	var dims []types.Tuple
	for i := 0; i < 16; i++ {
		for n := 1 + rng.Intn(4)/3; n > 0; n-- {
			dims = append(dims, types.Tuple{
				types.NewString(fmt.Sprintf("k%02d", i)),
				types.NewString(fmt.Sprintf("name%d", rng.Intn(8))),
			})
		}
	}
	ints := make([]types.Tuple, 40)
	doubles := make([]types.Tuple, 40)
	for i := range ints {
		ints[i] = types.Tuple{maybe(12, types.NewInt(int64(rng.Intn(24)))), types.NewInt(int64(rng.Intn(50)))}
		n := float64(rng.Intn(24))
		if rng.Intn(6) == 0 {
			n += 0.5
		}
		doubles[i] = types.Tuple{maybe(12, types.NewFloat(n)), types.NewFloat(float64(rng.Intn(40)) / 4)}
	}
	table := func(name, decl string, rows []types.Tuple, parts int) Table {
		fields := make([]types.Field, 0, 5)
		for _, col := range strings.Split(decl, ", ") {
			name, kind, _ := strings.Cut(col, ":")
			f := types.Field{Name: name}
			switch kind {
			case "int":
				f.Kind = types.KindInt
			case "double":
				f.Kind = types.KindFloat
			case "chararray":
				f.Kind = types.KindString
			}
			fields = append(fields, f)
		}
		return Table{Path: prefix + "/" + name, Decl: decl, Schema: types.Schema{Fields: fields}, Rows: rows, Parts: parts}
	}
	return []Table{
		table("facts", "k:chararray, a:int, b:int, c:chararray, d:double", facts, 3),
		table("dims", "k:chararray, label:chararray", dims, 2),
		table("ints", "n:int, x:int", ints, 2),
		table("doubles", "n:double, y:double", doubles, 3),
	}
}

// Load writes the tables into a DFS.
func Load(fs *dfs.FS, tables []Table) error {
	for _, tb := range tables {
		if err := fs.WritePartitioned(tb.Path, tb.Schema, tb.Rows, tb.Parts); err != nil {
			return err
		}
	}
	return nil
}

// Gen draws random, always-valid scripts over a table set. Every script
// loads one or two tables, applies map-side steps (FILTER, FOREACH with
// arithmetic, SPLIT, UNION) and then one or two blocking steps (GROUP with
// aggregates, GROUP ALL, COGROUP, JOIN, DISTINCT, ORDER, LIMIT), so many
// compile to more than one job. Constants come from small sets, so
// sub-plans repeat across scripts and the repository has something to
// reuse. ORDER is always the last step, and LIMIT appears only over an
// ORDER by every column, whose output is then defined row for row.
type Gen struct {
	rng    *rand.Rand
	tables []Table
	consts map[string][][]string // per table path and column: the literals filters compare with
	sb     strings.Builder
	n      int
}

// NewGen returns a generator drawing from seed.
func NewGen(seed int64, tables []Table) *Gen {
	g := &Gen{rng: rand.New(rand.NewSource(seed)), tables: tables, consts: make(map[string][][]string)}
	for _, tb := range tables {
		g.consts[tb.Path] = quartiles(tb)
	}
	return g
}

// quartiles picks each column's lower quartile, median and upper quartile
// as literals, so filters over loaded columns keep some rows and drop some.
func quartiles(tb Table) [][]string {
	out := make([][]string, len(tb.Schema.Fields))
	for c := range out {
		var vals []types.Value
		for _, row := range tb.Rows {
			if c < len(row) && !row[c].IsNull() {
				vals = append(vals, row[c])
			}
		}
		sort.Slice(vals, func(i, j int) bool { return types.Compare(vals[i], vals[j]) < 0 })
		for _, q := range []int{1, 2, 3} {
			if len(vals) == 0 {
				break
			}
			v := vals[q*(len(vals)-1)/4]
			lit := v.String()
			if v.Kind() == types.KindString {
				lit = "'" + lit + "'"
			}
			out[c] = append(out[c], lit)
		}
	}
	return out
}

// rel is a relation the script has defined: its alias and its columns.
type rel struct {
	alias string
	cols  []col
}

// col is one column: its name, or "" when a name cannot reference it; its
// kind — KindInt or KindFloat for numbers (KindFloat when the column may
// hold either), KindString, or another kind no step computes on; and the
// literals a filter compares it with, when known.
type col struct {
	name   string
	kind   types.Kind
	consts []string
}

func (c col) numeric() bool { return c.kind == types.KindInt || c.kind == types.KindFloat }
func (c col) scalar() bool  { return c.numeric() || c.kind == types.KindString }

// Script returns one script storing its result into out.
func (g *Gen) Script(out string) string {
	g.sb.Reset()
	g.n = 0
	cur := g.source()
	for i := g.rng.Intn(3); i > 0; i-- {
		cur = g.mapStep(cur)
	}
	for blocks := 1 + g.rng.Intn(2); blocks > 0; blocks-- {
		var final bool
		cur, final = g.blockStep(cur)
		if final {
			break
		}
		if g.rng.Intn(2) == 0 {
			cur = g.mapStep(cur)
		}
	}
	fmt.Fprintf(&g.sb, "store %s into '%s';\n", cur.alias, out)
	return g.sb.String()
}

func (g *Gen) alias() string {
	g.n++
	return fmt.Sprintf("R%d", g.n)
}

// emit writes one statement defining a new alias with the given columns.
func (g *Gen) emit(cols []col, format string, args ...any) rel {
	r := rel{alias: g.alias(), cols: cols}
	fmt.Fprintf(&g.sb, "%s = "+format+";\n", append([]any{r.alias}, args...)...)
	return r
}

func (g *Gen) load(tb Table) rel {
	cols := columnsOf(tb)
	for i := range cols {
		cols[i].consts = g.consts[tb.Path][i]
	}
	return g.emit(cols, "load '%s' as (%s)", tb.Path, tb.Decl)
}

// source loads a table, or the union of two tables of one shape.
func (g *Gen) source() rel {
	a := g.tables[g.rng.Intn(len(g.tables))]
	if g.rng.Intn(3) == 0 {
		for _, b := range g.tables {
			if b.Path != a.Path && unionable(columnsOf(a), columnsOf(b)) {
				l, r := g.load(a), g.load(b)
				return g.emit(unionCols(l.cols, r.cols), "union %s, %s", l.alias, r.alias)
			}
		}
	}
	return g.load(a)
}

func columnsOf(tb Table) []col {
	cols := make([]col, len(tb.Schema.Fields))
	for i, f := range tb.Schema.Fields {
		cols[i] = col{name: f.Name, kind: f.Kind}
	}
	return cols
}

func unionable(a, b []col) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind && !(a[i].numeric() && b[i].numeric()) {
			return false
		}
	}
	return true
}

// unionCols is a union's columns: the first input's names, and numbers of
// mixed kinds as KindFloat.
func unionCols(a, b []col) []col {
	out := append([]col(nil), a...)
	for i := range out {
		if out[i].kind != b[i].kind {
			out[i].kind = types.KindFloat
		}
	}
	return out
}

// pick returns the index of a random column satisfying ok, or -1.
func (g *Gen) pick(cols []col, ok func(col) bool) int {
	var idx []int
	for i, c := range cols {
		if ok(c) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[g.rng.Intn(len(idx))]
}

// atom draws one comparison over a scalar column of r.
func (g *Gen) atom(r rel) string {
	i := g.pick(r.cols, col.scalar)
	if i < 0 {
		return "1 == 1"
	}
	op := []string{"<", "<=", ">", ">=", "==", "!="}[g.rng.Intn(6)]
	c := r.cols[i]
	consts := c.consts
	if len(consts) == 0 {
		switch c.kind {
		case types.KindString:
			consts = []string{"'k05'", "'k12'", "'v2'"}
		case types.KindInt:
			consts = []string{"1", "3", "10", "25"}
		default:
			consts = []string{"2.5", "7.5", "12.25"}
		}
	}
	return fmt.Sprintf("$%d %s %s", i, op, consts[g.rng.Intn(len(consts))])
}

// pred draws a predicate: a comparison, or two joined by and/or, or a
// negated one.
func (g *Gen) pred(r rel) string {
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%s and %s", g.atom(r), g.atom(r))
	case 1:
		return fmt.Sprintf("%s or %s", g.atom(r), g.atom(r))
	case 2:
		return fmt.Sprintf("not (%s)", g.atom(r))
	default:
		return g.atom(r)
	}
}

// mapStep applies one non-blocking step.
func (g *Gen) mapStep(r rel) rel {
	switch g.rng.Intn(5) {
	case 0, 1:
		return g.emit(r.cols, "filter %s by %s", r.alias, g.pred(r))
	case 2:
		return g.project(r)
	case 3:
		// SPLIT into a branch and its complement; go on with one branch or
		// with both rejoined.
		p := g.pred(r)
		yes, no := g.alias(), g.alias()
		fmt.Fprintf(&g.sb, "split %s into %s if %s, %s if not (%s);\n", r.alias, yes, p, no, p)
		if g.rng.Intn(2) == 0 {
			return rel{alias: yes, cols: r.cols}
		}
		return g.emit(r.cols, "union %s, %s", yes, no)
	default:
		// Union with a filtered copy of itself: rows twice.
		f := g.emit(r.cols, "filter %s by %s", r.alias, g.pred(r))
		return g.emit(r.cols, "union %s, %s", r.alias, f.alias)
	}
}

// project keeps some columns, in order, and may add one computed column.
func (g *Gen) project(r rel) rel {
	var gens []string
	var cols []col
	for i, c := range r.cols {
		if i < len(r.cols)-1 || len(cols) > 0 {
			if g.rng.Intn(3) == 0 {
				continue
			}
		}
		name := fmt.Sprintf("f%d", g.n*10+len(cols))
		gens = append(gens, fmt.Sprintf("$%d as %s", i, name))
		cols = append(cols, col{name: name, kind: c.kind, consts: c.consts})
	}
	if i := g.pick(r.cols, col.numeric); i >= 0 && g.rng.Intn(2) == 0 {
		name := fmt.Sprintf("f%d", g.n*10+len(cols))
		kind := r.cols[i].kind
		var e string
		switch g.rng.Intn(5) {
		case 0:
			e = fmt.Sprintf("$%d * 2", i)
		case 1:
			e, kind = fmt.Sprintf("$%d - 1.5", i), types.KindFloat
		case 2:
			e = fmt.Sprintf("-$%d", i)
		case 3:
			e = fmt.Sprintf("$%d / 2", i)
		default:
			j := g.pick(r.cols, col.numeric)
			e = fmt.Sprintf("$%d + $%d", i, j)
			if r.cols[j].kind != types.KindInt {
				kind = types.KindFloat
			}
		}
		gens = append(gens, e+" as "+name)
		cols = append(cols, col{name: name, kind: kind})
	}
	return g.emit(cols, "foreach %s generate %s", r.alias, strings.Join(gens, ", "))
}

// partner loads a second input for JOIN and COGROUP and picks key columns
// of compatible kinds on both sides: strings with strings, numbers with
// numbers (so an int key meets a double key). ok is false when no table
// fits.
func (g *Gen) partner(r rel) (other rel, li, ri int, ok bool) {
	li = g.pick(r.cols, col.scalar)
	if li < 0 {
		return rel{}, 0, 0, false
	}
	lc := r.cols[li]
	match := func(c col) bool { return c.kind == lc.kind || (c.numeric() && lc.numeric()) }
	var fits []Table
	for _, tb := range g.tables {
		if g.pick(columnsOf(tb), match) >= 0 {
			fits = append(fits, tb)
		}
	}
	if len(fits) == 0 {
		return rel{}, 0, 0, false
	}
	other = g.load(fits[g.rng.Intn(len(fits))])
	return other, li, g.pick(other.cols, match), true
}

// blockStep applies one blocking step; final reports an ORDER, which ends
// the script.
func (g *Gen) blockStep(r rel) (rel, bool) {
	switch g.rng.Intn(7) {
	case 0, 1:
		i := g.pick(r.cols, col.scalar)
		if i < 0 {
			break
		}
		key, keyCol := fmt.Sprintf("$%d", i), r.cols[i]
		if j := g.pick(r.cols, col.scalar); j != i && j >= 0 && g.rng.Intn(3) == 0 {
			key, keyCol = fmt.Sprintf("($%d, $%d)", i, j), col{kind: types.KindTuple}
		}
		grp := g.emit(nil, "group %s by %s", r.alias, key)
		return g.aggregate(grp, r, keyCol), false
	case 2:
		grp := g.emit(nil, "group %s all", r.alias)
		return g.aggregate(grp, r, col{kind: types.KindString}), false
	case 3:
		other, li, ri, ok := g.partner(r)
		if !ok {
			break
		}
		cg := g.emit(nil, "cogroup %s by $%d, %s by $%d", r.alias, li, other.alias, ri)
		name := fmt.Sprintf("f%d", g.n*10)
		key := r.cols[li]
		key.name = name
		return g.emit([]col{key, {kind: types.KindInt}, {kind: types.KindInt}},
			"foreach %s generate group as %s, COUNT(%s), COUNT(%s)", cg.alias, name, r.alias, other.alias), false
	case 4:
		other, li, ri, ok := g.partner(r)
		if !ok {
			break
		}
		// Joined names may repeat; positions are what later steps use.
		cols := append(append([]col(nil), r.cols...), other.cols...)
		for i := range cols {
			cols[i].name = ""
		}
		return g.emit(cols, "join %s by $%d, %s by $%d", r.alias, li, other.alias, ri), false
	case 5:
		return g.emit(r.cols, "distinct %s", r.alias), false
	}
	return g.order(r), true
}

// aggregate follows a GROUP with a FOREACH of the group value and
// aggregates over the grouped relation's named columns.
func (g *Gen) aggregate(grp, in rel, key col) rel {
	key.name = fmt.Sprintf("f%d", g.n*10)
	gens := []string{"group as " + key.name, fmt.Sprintf("COUNT(%s)", in.alias)}
	cols := []col{key, {kind: types.KindInt}}
	for _, c := range in.cols {
		if c.name == "" || !c.scalar() || g.rng.Intn(2) == 0 {
			continue
		}
		fns := []string{"MIN", "MAX"}
		if c.numeric() {
			fns = append(fns, "SUM", "AVG")
		}
		fn := fns[g.rng.Intn(len(fns))]
		out := col{name: fmt.Sprintf("f%d", g.n*10+len(cols)), kind: c.kind}
		switch fn {
		case "MIN", "MAX":
			out.consts = c.consts
		case "AVG":
			out.kind = types.KindFloat
		case "SUM":
			if out.kind != types.KindInt {
				out.kind = types.KindFloat
			}
		}
		gens = append(gens, fmt.Sprintf("%s(%s.%s) as %s", fn, in.alias, c.name, out.name))
		cols = append(cols, out)
	}
	return g.emit(cols, "foreach %s generate %s", grp.alias, strings.Join(gens, ", "))
}

// order sorts by every column, in random directions, and then may LIMIT;
// with a non-scalar column it sorts by the scalar ones and never limits.
func (g *Gen) order(r rel) rel {
	var keys []string
	all := true
	for i, c := range r.cols {
		if !c.scalar() {
			all = false
			continue
		}
		k := fmt.Sprintf("$%d", i)
		if g.rng.Intn(2) == 0 {
			k += " desc"
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		keys = []string{"$0"}
	}
	o := g.emit(r.cols, "order %s by %s", r.alias, strings.Join(keys, ", "))
	if all && g.rng.Intn(2) == 0 {
		return g.emit(r.cols, "limit %s %d", o.alias, []int{3, 8, 20}[g.rng.Intn(3)])
	}
	return o
}
