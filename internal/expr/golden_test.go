package expr

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/types"
)

// The eval golden pins what every operator and function computes: a
// seeded corpus of bound expressions, each evaluated over the same seeded
// tuples (nulls, ints, floats and strings mixed in every column, and bags
// of such tuples). testdata/eval_golden.txt was generated by the
// string-dispatching evaluator and must hold byte for byte; it is not
// regenerated. Every SUM in it stays below 2^53, where summing ints in
// float64 is exact.
const evalGoldenPath = "testdata/eval_golden.txt"

var goldenElem = types.NewSchema(
	types.Field{Name: "x", Kind: types.KindInt},
	types.Field{Name: "y", Kind: types.KindFloat},
	types.Field{Name: "z", Kind: types.KindString},
)

var goldenSchema = types.NewSchema(
	types.Field{Name: "s", Kind: types.KindString},
	types.Field{Name: "i", Kind: types.KindInt},
	types.Field{Name: "f", Kind: types.KindFloat},
	types.Field{Name: "m"},
	types.Field{Name: "B", Kind: types.KindBag, Sub: &goldenElem},
)

// goldenScalar draws a small scalar of a random kind, null included.
func goldenScalar(rng *rand.Rand) types.Value {
	switch rng.Intn(6) {
	case 0:
		return types.Null()
	case 1:
		return types.NewInt(int64(rng.Intn(21) - 10))
	case 2:
		return types.NewFloat(float64(rng.Intn(41)-20) / 4)
	case 3:
		return types.NewString([]string{"", "a", "Ab", "7", "2.5", "zz"}[rng.Intn(6)])
	case 4:
		return types.NewBool(rng.Intn(2) == 0)
	default:
		return types.NewInt(int64(rng.Intn(3)))
	}
}

func goldenBag(rng *rand.Rand) types.Value {
	b := &types.Bag{}
	for n := rng.Intn(5); n > 0; n-- {
		b.Add(types.Tuple{goldenScalar(rng), goldenScalar(rng), goldenScalar(rng)})
	}
	return types.NewBag(b)
}

func goldenTuples() []types.Tuple {
	rng := rand.New(rand.NewSource(2))
	out := make([]types.Tuple, 12)
	for i := range out {
		out[i] = types.Tuple{goldenScalar(rng), goldenScalar(rng), goldenScalar(rng), goldenScalar(rng), goldenBag(rng)}
	}
	// One tuple of nulls only, and one whose bag is empty.
	out[0] = types.Tuple{types.Null(), types.Null(), types.Null(), types.Null(), types.Null()}
	out[1][4] = types.NewBag(&types.Bag{})
	return out
}

var (
	goldenBinary = []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "and", "or"}
	goldenFuncs  = []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "ISEMPTY", "SIZE", "CONCAT",
		"LOWER", "UPPER", "ROUND", "ABS", "DISTINCTCOUNT", "NOSUCHFN"}
)

// goldenBagExpr draws a bag-valued expression: the bag column or a
// projection of one of its fields.
func goldenBagExpr(rng *rand.Rand) *Expr {
	switch rng.Intn(4) {
	case 0:
		return Col("B")
	default:
		return BagProj(Col("B"), []string{"x", "y", "z"}[rng.Intn(3)])
	}
}

func goldenExpr(rng *rand.Rand, depth int) *Expr {
	if depth <= 0 || rng.Intn(5) == 0 {
		switch rng.Intn(4) {
		case 0:
			return Lit(goldenScalar(rng))
		case 1:
			return ColIdx(rng.Intn(4))
		default:
			return Col([]string{"s", "i", "f", "m"}[rng.Intn(4)])
		}
	}
	switch rng.Intn(8) {
	case 0, 1, 2:
		return Binary(goldenBinary[rng.Intn(len(goldenBinary))], goldenExpr(rng, depth-1), goldenExpr(rng, depth-1))
	case 3:
		return Unary([]string{"not", "neg"}[rng.Intn(2)], goldenExpr(rng, depth-1))
	case 4, 5:
		// Aggregates and bag functions over a bag.
		return Call(goldenFuncs[rng.Intn(len(goldenFuncs))], goldenBagExpr(rng))
	default:
		args := make([]*Expr, rng.Intn(3))
		for i := range args {
			args[i] = goldenExpr(rng, depth-1)
		}
		return Call(goldenFuncs[rng.Intn(len(goldenFuncs))], args...)
	}
}

func goldenValue(v types.Value) string { return v.Kind().String() + ":" + v.String() }

// evalGoldenLines renders one line per expression: its Canonical(), then
// its value on each golden tuple. Every expression is evaluated twice,
// bound and after a JSON round trip (how stored plans come back from the
// repository and jobs off the fleet's wire); the two must agree.
func evalGoldenLines(t *testing.T) []string {
	rng := rand.New(rand.NewSource(3))
	tuples := goldenTuples()
	lines := make([]string, 0, 800)
	for len(lines) < cap(lines) {
		e, err := goldenExpr(rng, 1+len(lines)%4).Bind(goldenSchema)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var back Expr
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		fields := []string{e.Canonical()}
		for _, tup := range tuples {
			v, bv := e.Eval(tup), back.Eval(tup)
			if goldenValue(v) != goldenValue(bv) {
				t.Errorf("%s on %v: bound %s, decoded %s", e, tup, goldenValue(v), goldenValue(bv))
			}
			fields = append(fields, goldenValue(v))
		}
		lines = append(lines, strings.Join(fields, "\t"))
	}
	return lines
}

func TestEvalGolden(t *testing.T) {
	want, err := os.ReadFile(evalGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	got := evalGoldenLines(t)
	if len(got) != len(wantLines) {
		t.Fatalf("golden has %d lines, generator %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, got[i], wantLines[i])
		}
	}
}
