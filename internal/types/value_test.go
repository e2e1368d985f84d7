package types

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		want string
	}{
		{Null(), KindNull, ""},
		{NewBool(true), KindBool, "true"},
		{NewInt(-42), KindInt, "-42"},
		{NewFloat(2.5), KindFloat, "2.5"},
		{NewString("hello"), KindString, "hello"},
		{NewTuple(Tuple{NewInt(1), NewString("x")}), KindTuple, "(1,x)"},
		{NewBag(BagOf([]Tuple{{NewInt(1)}, {NewInt(2)}}...)), KindBag, "{(1),(2)}"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind of %v = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int() on string value did not panic")
		}
	}()
	NewString("x").Int()
}

func TestCompareScalars(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewFloat(1.5), NewInt(2), -1},
		{NewString("a"), NewString("b"), -1},
		{Null(), NewInt(0), -1},
		{Null(), Null(), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTuples(t *testing.T) {
	a := Tuple{NewInt(1), NewString("a")}
	b := Tuple{NewInt(1), NewString("b")}
	if CompareTuples(a, b) >= 0 {
		t.Error("expected a < b")
	}
	if CompareTuples(a, a) != 0 {
		t.Error("expected a == a")
	}
	short := Tuple{NewInt(1)}
	if CompareTuples(short, a) >= 0 {
		t.Error("shorter tuple should sort first on shared prefix")
	}
}

func TestCompareBagsAsMultisets(t *testing.T) {
	a := NewBag(BagOf([]Tuple{{NewInt(1)}, {NewInt(2)}}...))
	b := NewBag(BagOf([]Tuple{{NewInt(2)}, {NewInt(1)}}...))
	if Compare(a, b) != 0 {
		t.Error("bags with same tuples in different order should compare equal")
	}
	c := NewBag(BagOf([]Tuple{{NewInt(1)}}...))
	if Compare(c, a) >= 0 {
		t.Error("smaller bag should sort first")
	}
}

func TestTruthy(t *testing.T) {
	if !NewBool(true).Truthy() {
		t.Error("true should be truthy")
	}
	for _, v := range []Value{NewBool(false), Null(), NewInt(1), NewString("true")} {
		if v.Truthy() {
			t.Errorf("%v should not be truthy", v)
		}
	}
}

func TestCoerce(t *testing.T) {
	if n, ok := CoerceInt(NewString(" 42 ")); !ok || n != 42 {
		t.Errorf("CoerceInt string = %d,%v", n, ok)
	}
	if _, ok := CoerceInt(NewString("x")); ok {
		t.Error("CoerceInt should fail on non-numeric string")
	}
	if n, ok := CoerceInt(NewFloat(3.0)); !ok || n != 3 {
		t.Errorf("CoerceInt float = %d,%v", n, ok)
	}
	if _, ok := CoerceInt(NewFloat(3.5)); ok {
		t.Error("CoerceInt should fail on fractional float")
	}
	for _, f := range []float64{1e30, -1e30, 1 << 63, math.Inf(1), math.Inf(-1), math.NaN()} {
		if n, ok := CoerceInt(NewFloat(f)); ok {
			t.Errorf("CoerceInt(%v) = %d, true; want false outside the int64 range", f, n)
		}
	}
	if n, ok := CoerceInt(NewFloat(-1 << 63)); !ok || n != math.MinInt64 {
		t.Errorf("CoerceInt(-2^63) = %d,%v", n, ok)
	}
	if f, ok := CoerceFloat(NewString("2.5")); !ok || f != 2.5 {
		t.Errorf("CoerceFloat = %v,%v", f, ok)
	}
	if f, ok := CoerceFloat(NewInt(2)); !ok || f != 2 {
		t.Errorf("CoerceFloat int = %v,%v", f, ok)
	}
}

func TestTupleClone(t *testing.T) {
	orig := Tuple{NewInt(1), NewString("a")}
	cl := orig.Clone()
	cl[0] = NewInt(99)
	if orig[0].Int() != 1 {
		t.Error("clone aliases original")
	}
}

// TestValueLayout pins the compact layout: 24 bytes on 64-bit, not
// comparable with ==, and tuples handed back with cap == len so an append
// never writes into the elements past the wrapped slice.
func TestValueLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(Value{}); got != 24 {
			t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
		}
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable; == would compare payload pointers")
	}
	backing := Tuple{NewInt(1), NewInt(2), NewInt(3)}
	tu := NewTuple(backing[:1]).Tuple()
	if len(tu) != 1 || cap(tu) != 1 {
		t.Errorf("Tuple() len %d cap %d, want 1 and 1", len(tu), cap(tu))
	}
	_ = append(tu, NewInt(99))
	if backing[1].Int() != 2 {
		t.Errorf("append to Tuple() overwrote the backing array: %v", backing)
	}
	if NewTuple(nil).Tuple() != nil {
		t.Error("NewTuple(nil).Tuple() is not nil")
	}
	if got := NewTuple(Tuple{}).Tuple(); got == nil || len(got) != 0 {
		t.Errorf("NewTuple(Tuple{}).Tuple() = %#v, want non-nil and empty", got)
	}
}

// gcValues builds values whose payloads are reachable only through the
// returned Values: heap strings and tuples sliced from the middle, empty and
// nil payloads, and the scalar extremes. want holds what payload must
// render for each of them.
//
//go:noinline
func gcValues() (vs []Value, want []string) {
	s := strings.Repeat("0123456789", 3)
	tu := Tuple{NewInt(7), NewString(strings.Repeat("ab", 5)), NewFloat(-1.5), Null()}
	bag := BagOf([]Tuple{{NewString(strings.Repeat("z", 9))}, nil}...)
	vs = []Value{
		NewString(s[3:9]), NewString(s[len(s):]), NewString(""),
		NewTuple(tu[1:3]), NewTuple(nil), NewTuple(Tuple{}),
		NewBag(nil), NewBag(bag),
		NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(1<<53 + 1),
		NewFloat(math.Copysign(0, -1)), NewFloat(math.Float64frombits(0x7ff8000000000001)),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewBool(true), NewBool(false), Null(),
	}
	want = []string{
		`"345678"`, `""`, `""`,
		"(ababababab,-1.5)", "nil", "()",
		"nil", "{(zzzzzzzzz),()}",
		"-9223372036854775808", "9223372036854775807", "9007199254740993",
		"0x8000000000000000", "0x7ff8000000000001",
		"0x7ff0000000000000", "0xfff0000000000000",
		"true", "false", "null",
	}
	return vs, want
}

// payload renders v through its kind's accessor: floats as their bits,
// strings quoted, and nil tuples and bags as "nil".
func payload(v Value) string {
	switch v.Kind() {
	case KindBool:
		return strconv.FormatBool(v.Bool())
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return fmt.Sprintf("%#x", math.Float64bits(v.Float()))
	case KindString:
		return strconv.Quote(v.Str())
	case KindTuple:
		if v.Tuple() == nil {
			return "nil"
		}
	case KindBag:
		if v.Bag() == nil {
			return "nil"
		}
	default:
		return "null"
	}
	return v.String()
}

// TestValuePayloadSurvivesGC checks that every payload a Value points at
// stays alive and unchanged through collections once the Value holds the
// only reference to it.
func TestValuePayloadSurvivesGC(t *testing.T) {
	vs, want := gcValues()
	runtime.GC()
	runtime.GC()
	for i, v := range vs {
		if got := payload(v); got != want[i] {
			t.Errorf("value %d (%s): payload %s, want %s", i, v.Kind(), got, want[i])
		}
	}
}

// randomValue builds an arbitrary value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	max := 7
	if depth <= 0 {
		max = 5 // scalars only
	}
	switch r.Intn(max) {
	case 0:
		return Null()
	case 1:
		return NewBool(r.Intn(2) == 0)
	case 2:
		return NewInt(r.Int63() - (1 << 62))
	case 3:
		return NewFloat(r.NormFloat64() * 1e6)
	case 4:
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return NewString(string(b))
	case 5:
		return NewTuple(randomTuple(r, depth-1))
	default:
		bag := BagOf()
		for i, n := 0, r.Intn(3); i < n; i++ {
			bag.Add(randomTuple(r, depth-1))
		}
		return NewBag(bag)
	}
}

func randomTuple(r *rand.Rand, depth int) Tuple {
	t := make(Tuple, r.Intn(5))
	for i := range t {
		t[i] = randomValue(r, depth)
	}
	return t
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	// Antisymmetry: Compare(a,b) == -Compare(b,a).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r, 2), randomValue(r, 2)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// Reflexivity.
	g := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomValue(r, 2)
		return Compare(a, a) == 0
	}
	if err := quick.Check(g, cfg); err != nil {
		t.Error(err)
	}
	// Transitivity on sorted triples.
	h := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs := []Value{randomValue(r, 2), randomValue(r, 2), randomValue(r, 2)}
		sort.Slice(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
		return Compare(vs[0], vs[1]) <= 0 && Compare(vs[1], vs[2]) <= 0 && Compare(vs[0], vs[2]) <= 0
	}
	if err := quick.Check(h, cfg); err != nil {
		t.Error(err)
	}
}

// TestCompareColumnMatchesCompare pins the engine's flattened column
// comparator to the generic total order: any disagreement would let the
// MapReduce shuffle's compiled comparators order keys differently from the
// serial reference plane. The explicit pairs cover the traps — int/int past
// 2^53 where the float64 conversion collapses neighbors, int/float numeric
// ties, and mixed-kind fallbacks.
func TestCompareColumnMatchesCompare(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(1<<53 + 1), NewInt(1<<53 + 2)}, // collide under float64: both orders must agree they tie
		{NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1)},
		{NewInt(3), NewFloat(3)},
		{NewFloat(2.5), NewInt(2)},
		{Null(), NewInt(0)},
		{NewBool(false), NewBool(true)},
		{NewString("ab"), NewString("ab\x00")},
		{NewTuple(Tuple{NewInt(1)}), NewTuple(Tuple{NewInt(1), NewInt(2)})},
	}
	for _, p := range pairs {
		if got, want := CompareColumn(p[0], p[1]), Compare(p[0], p[1]); got != want {
			t.Errorf("CompareColumn(%v, %v) = %d, Compare = %d", p[0], p[1], got, want)
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r, 2), randomValue(r, 2)
		return CompareColumn(a, b) == Compare(a, b) && CompareColumn(b, a) == Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(Field{Name: "user", Kind: KindString}, Field{Name: "rev", Kind: KindFloat})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.IndexOf("rev") != 1 || s.IndexOf("missing") != -1 {
		t.Error("IndexOf wrong")
	}
	if got := s.String(); got != "(user:string, rev:float)" {
		t.Errorf("String = %q", got)
	}
	if !reflect.DeepEqual(s.Names(), []string{"user", "rev"}) {
		t.Error("Names wrong")
	}
	p, err := s.Project([]int{1})
	if err != nil || p.Fields[0].Name != "rev" {
		t.Errorf("Project = %v, %v", p, err)
	}
	if _, err := s.Project([]int{5}); err == nil {
		t.Error("Project out of range should error")
	}
}

func TestSchemaConcatDisambiguates(t *testing.T) {
	a := SchemaFromNames("user", "x")
	b := SchemaFromNames("user", "y")
	c := a.Concat(b)
	want := []string{"user", "x", "r::user", "y"}
	if !reflect.DeepEqual(c.Names(), want) {
		t.Errorf("Concat names = %v, want %v", c.Names(), want)
	}
}

func TestSchemaCanonicalDeterministic(t *testing.T) {
	s := NewSchema(Field{Name: "a", Kind: KindInt}, Field{Name: "b"})
	if s.Canonical() != "(a:int,b:null)" {
		t.Errorf("Canonical = %q", s.Canonical())
	}
}
