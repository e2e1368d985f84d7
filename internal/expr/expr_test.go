package expr

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/types"
)

func bindOrFatal(t *testing.T, e *Expr, s types.Schema) *Expr {
	t.Helper()
	b, err := e.Bind(s)
	if err != nil {
		t.Fatalf("bind %s: %v", e, err)
	}
	return b
}

var testSchema = types.NewSchema(
	types.Field{Name: "user", Kind: types.KindString},
	types.Field{Name: "n", Kind: types.KindInt},
	types.Field{Name: "rev", Kind: types.KindFloat},
)

var testTuple = types.Tuple{types.NewString("alice"), types.NewInt(7), types.NewFloat(2.5)}

func TestBindResolvesNames(t *testing.T) {
	e := bindOrFatal(t, Binary("+", Col("n"), Lit(types.NewInt(1))), testSchema)
	if got := e.Eval(testTuple); got.Int() != 8 {
		t.Errorf("n+1 = %v", got)
	}
	if _, err := Col("missing").Bind(testSchema); err == nil {
		t.Error("binding unknown column should fail")
	}
	if _, err := ColIdx(9).Bind(testSchema); err == nil {
		t.Error("binding out-of-range index should fail")
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		sym  string
		l, r types.Value
		want types.Value
	}{
		{"+", types.NewInt(2), types.NewInt(3), types.NewInt(5)},
		{"-", types.NewInt(2), types.NewInt(3), types.NewInt(-1)},
		{"*", types.NewInt(4), types.NewInt(3), types.NewInt(12)},
		{"/", types.NewInt(7), types.NewInt(2), types.NewInt(3)},
		{"%", types.NewInt(7), types.NewInt(2), types.NewInt(1)},
		{"/", types.NewInt(7), types.NewInt(0), types.Null()},
		{"+", types.NewFloat(1.5), types.NewInt(1), types.NewFloat(2.5)},
		{"/", types.NewFloat(1), types.NewFloat(0), types.Null()},
		{"+", types.NewString("x"), types.NewInt(1), types.Null()},
	}
	for _, c := range cases {
		got := Binary(c.sym, Lit(c.l), Lit(c.r)).Eval(nil)
		if !types.Equal(got, c.want) {
			t.Errorf("%v %s %v = %v, want %v", c.l, c.sym, c.r, got, c.want)
		}
	}
}

func TestComparisonsAndBooleans(t *testing.T) {
	e := bindOrFatal(t, Binary("and",
		Binary(">", Col("n"), Lit(types.NewInt(5))),
		Binary("==", Col("user"), Lit(types.NewString("alice")))), testSchema)
	if !e.Eval(testTuple).Truthy() {
		t.Error("predicate should hold")
	}
	ne := bindOrFatal(t, Unary("not", Binary("<", Col("rev"), Lit(types.NewFloat(100)))), testSchema)
	if ne.Eval(testTuple).Truthy() {
		t.Error("not(rev<100) should be false")
	}
	// Null comparison propagates null, which is not truthy.
	nullCmp := Binary("<", Lit(types.Null()), Lit(types.NewInt(1)))
	if nullCmp.Eval(nil).Truthy() {
		t.Error("null < 1 should not be truthy")
	}
}

func bagOf(rows ...types.Tuple) types.Value {
	b := &types.Bag{}
	for _, r := range rows {
		b.Add(r)
	}
	return types.NewBag(b)
}

func TestAggregates(t *testing.T) {
	bag := bagOf(
		types.Tuple{types.NewInt(1)},
		types.Tuple{types.NewInt(5)},
		types.Tuple{types.NewInt(3)},
		types.Tuple{types.Null()},
	)
	cases := []struct {
		fn   string
		want types.Value
	}{
		{"COUNT", types.NewInt(4)}, // COUNT counts all tuples
		{"SUM", types.NewInt(9)},
		{"AVG", types.NewFloat(3)},
		{"MIN", types.NewInt(1)},
		{"MAX", types.NewInt(5)},
	}
	for _, c := range cases {
		got := Call(c.fn, Lit(bag)).Eval(nil)
		if !types.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.fn, got, c.want)
		}
	}
	if got := Call("SUM", Lit(bagOf())).Eval(nil); !got.IsNull() {
		t.Errorf("SUM of empty bag = %v, want null", got)
	}
	if got := Call("ISEMPTY", Lit(bagOf())).Eval(nil); !got.Truthy() {
		t.Error("ISEMPTY of empty bag should be true")
	}
	// Past 2^53 a float64 sum drops the 1; an int SUM is exact.
	big := bagOf(types.Tuple{types.NewInt(1 << 53)}, types.Tuple{types.NewInt(1)})
	if got := Call("SUM", Lit(big)).Eval(nil); got.Kind() != types.KindInt || got.Int() != 1<<53+1 {
		t.Errorf("SUM past 2^53 = %v, want %d", got, int64(1<<53+1))
	}
	fbag := bagOf(types.Tuple{types.NewFloat(1.5)}, types.Tuple{types.NewInt(1)})
	if got := Call("SUM", Lit(fbag)).Eval(nil); !types.Equal(got, types.NewFloat(2.5)) {
		t.Errorf("mixed SUM = %v", got)
	}
}

func TestDistinctCount(t *testing.T) {
	bag := bagOf(
		types.Tuple{types.NewString("a")},
		types.Tuple{types.NewString("b")},
		types.Tuple{types.NewString("a")},
	)
	if got := Call("DISTINCTCOUNT", Lit(bag)).Eval(nil); got.Int() != 2 {
		t.Errorf("DISTINCTCOUNT = %v", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	if got := Call("CONCAT", Lit(types.NewString("a")), Lit(types.NewString("b"))).Eval(nil); got.Str() != "ab" {
		t.Errorf("CONCAT = %v", got)
	}
	if got := Call("LOWER", Lit(types.NewString("ABC"))).Eval(nil); got.Str() != "abc" {
		t.Errorf("LOWER = %v", got)
	}
	if got := Call("UPPER", Lit(types.NewString("abc"))).Eval(nil); got.Str() != "ABC" {
		t.Errorf("UPPER = %v", got)
	}
	if got := Call("SIZE", Lit(types.NewString("abcd"))).Eval(nil); got.Int() != 4 {
		t.Errorf("SIZE = %v", got)
	}
	if got := Call("ROUND", Lit(types.NewFloat(2.6))).Eval(nil); got.Int() != 3 {
		t.Errorf("ROUND = %v", got)
	}
	if got := Call("ABS", Lit(types.NewInt(-5))).Eval(nil); got.Int() != 5 {
		t.Errorf("ABS = %v", got)
	}
	if got := Call("NOSUCHFN", Lit(types.NewInt(1))).Eval(nil); !got.IsNull() {
		t.Errorf("unknown function = %v, want null", got)
	}
}

func TestBagProjection(t *testing.T) {
	inner := types.NewSchema(
		types.Field{Name: "user", Kind: types.KindString},
		types.Field{Name: "rev", Kind: types.KindFloat},
	)
	grouped := types.NewSchema(
		types.Field{Name: "group", Kind: types.KindString},
		types.Field{Name: "C", Kind: types.KindBag, Sub: &inner},
	)
	bag := bagOf(
		types.Tuple{types.NewString("a"), types.NewFloat(1.5)},
		types.Tuple{types.NewString("a"), types.NewFloat(2.5)},
	)
	row := types.Tuple{types.NewString("a"), bag}

	e := bindOrFatal(t, Call("SUM", BagProj(Col("C"), "rev")), grouped)
	if got := e.Eval(row); !types.Equal(got, types.NewFloat(4)) {
		t.Errorf("SUM(C.rev) = %v", got)
	}
	// Unknown nested field fails at bind time.
	if _, err := Call("SUM", BagProj(Col("C"), "bogus")).Bind(grouped); err == nil {
		t.Error("binding unknown bag field should fail")
	}
	// Projecting a non-bag yields null at eval time.
	bad := bindOrFatal(t, BagProj(Col("group"), "rev").withIndex(0), grouped)
	if got := bad.Eval(row); got.Kind() != types.KindNull {
		t.Errorf("bagproj of scalar = %v", got)
	}
}

// withIndex force-binds the projection index for tests that bypass schema
// resolution.
func (e *Expr) withIndex(i int) *Expr {
	e.Index = i
	return e
}

func TestCanonicalStableAndAliasFree(t *testing.T) {
	s1 := types.SchemaFromNames("user", "rev")
	s2 := types.SchemaFromNames("u", "r") // same positions, different aliases
	e1 := bindOrFatal(t, Binary("==", Col("user"), Lit(types.NewString("x"))), s1)
	e2 := bindOrFatal(t, Binary("==", Col("u"), Lit(types.NewString("x"))), s2)
	if e1.Canonical() != e2.Canonical() {
		t.Errorf("alias change altered canonical: %q vs %q", e1.Canonical(), e2.Canonical())
	}
}

func TestCanonicalCommutativeNormalization(t *testing.T) {
	a := Binary("==", ColIdx(1), ColIdx(0))
	b := Binary("==", ColIdx(0), ColIdx(1))
	if a.Canonical() != b.Canonical() {
		t.Errorf("commutative == not normalized: %q vs %q", a.Canonical(), b.Canonical())
	}
	lt := Binary("<", ColIdx(1), ColIdx(0))
	gt := Binary("<", ColIdx(0), ColIdx(1))
	if lt.Canonical() == gt.Canonical() {
		t.Error("non-commutative < must not normalize")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	e := bindOrFatal(t, Binary("and",
		Binary(">=", Col("n"), Lit(types.NewInt(5))),
		Call("ISEMPTY", BagProj(ColIdx(0), "x").withIndex(2))), testSchema)
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Expr
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Canonical() != e.Canonical() {
		t.Errorf("JSON round trip changed canonical: %q vs %q", back.Canonical(), e.Canonical())
	}
	// The decoded tree evaluates like the original.
	for _, tup := range []types.Tuple{testTuple, {types.NewString("bob"), types.NewInt(3), types.Null()}} {
		if got, want := back.Eval(tup), e.Eval(tup); !types.Equal(got, want) || got.Kind() != want.Kind() {
			t.Errorf("decoded tree on %v = %v, want %v", tup, got, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := Binary("+", Col("n"), Lit(types.NewInt(1)))
	c := e.Clone()
	c.Args[0].Name = "changed"
	if e.Args[0].Name != "n" {
		t.Error("clone aliases original args")
	}
}

func TestIsAggregateCall(t *testing.T) {
	if !Call("sum", ColIdx(0)).IsAggregateCall() {
		t.Error("sum should be aggregate (case-insensitive)")
	}
	if Call("CONCAT").IsAggregateCall() {
		t.Error("CONCAT is not aggregate")
	}
}

func TestCanonicalLiteralIncludesKind(t *testing.T) {
	i := Lit(types.NewInt(1)).Canonical()
	s := Lit(types.NewString("1")).Canonical()
	if i == s {
		t.Error("int 1 and string \"1\" literals must differ canonically")
	}
	if !strings.Contains(i, "int") || !strings.Contains(s, "string") {
		t.Errorf("canonical literals lack kinds: %q %q", i, s)
	}
}
