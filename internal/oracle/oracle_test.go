package oracle

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestEvalKnownAnswers pins the oracle's semantics on hand-computed
// answers over two tiny tables: a has int keys, b double keys, and both a
// null key.
func TestEvalKnownAnswers(t *testing.T) {
	i, f, null := types.NewInt, types.NewFloat, types.Null()
	tables := []Table{
		{Path: "a", Rows: []types.Tuple{{i(1), i(10)}, {i(2), i(20)}, {null, i(30)}, {i(2), i(5)}}, Parts: 2},
		{Path: "b", Rows: []types.Tuple{{f(2), f(0.5)}, {null, f(1.5)}, {f(3), f(2.5)}}, Parts: 1},
	}
	const load = "A = load 'a' as (k:int, v:int);\nB = load 'b' as (k:double, w:double);\n"
	for _, c := range []struct{ body, want string }{
		// Read order: partition 0 holds rows 0 and 2, partition 1 rows 1 and 3.
		{"R = foreach A generate v;", "(10) (30) (20) (5)"},
		// int 2 meets double 2.0; null keys never join.
		{"R = join A by k, B by k;", "(2,20,2d,0.5d) (2,5,2d,0.5d)"},
		// Each input's null keys form their own cogroup.
		{"C = cogroup A by k, B by k;\nR = foreach C generate group, COUNT(A), COUNT(B);",
			"(1,1,0) (null,1,0) (2,2,1) (null,0,1) (3d,0,1)"},
		// GROUP keeps nulls together; SUM stays int until a double joins.
		{"U = union A, B;\nG = group U by k;\nR = foreach G generate group, COUNT(U), SUM(U.v), MAX(U.v), AVG(U.v);",
			"(1,1,10,10,10d) (null,2,31.5d,30,15.75d) (2,3,25.5d,20,8.5d) (3d,1,2.5d,2.5d,2.5d)"},
		// A comparison with null is null, which a filter reads as false,
		// so its negation keeps the row.
		{"R = filter A by not (k > 1);", "(1,10) (null,30)"},
		// ORDER is stable over read order; LIMIT takes its first rows.
		{"O = order A by k desc;\nR = limit O 3;", "(2,20) (2,5) (1,10)"},
		// DISTINCT keeps the first of equal rows.
		{"P = foreach A generate k;\nD = foreach B generate k;\nU = union P, D;\nR = distinct U;", "(1) (null) (2) (3d)"},
	} {
		src := load + c.body + "\nstore R into 'out';\n"
		outs, err := Run(src, tables)
		if err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		if got := strings.Join(exact(outs["out"].Rows), " "); got != c.want {
			t.Errorf("%s\ngot  %s\nwant %s", c.body, got, c.want)
		}
	}
}

// TestGenScriptsEvaluate: every drawn script plans and evaluates, and the
// generator covers every blocking kind.
func TestGenScriptsEvaluate(t *testing.T) {
	tables := Tables(1, "t")
	gen := NewGen(1, tables)
	seen := map[string]bool{}
	for q := 0; q < 200; q++ {
		out := fmt.Sprintf("out/%d", q)
		src := gen.Script(out)
		if _, err := Run(src, tables); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		for _, kw := range []string{"join", "cogroup", "group", " all;", "distinct", "order", "limit", "union", "split"} {
			if strings.Contains(src, kw) {
				seen[kw] = true
			}
		}
	}
	if len(seen) != 9 {
		t.Errorf("200 scripts cover only %v", seen)
	}
}
