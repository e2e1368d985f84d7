package types

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tuples := []Tuple{
		{},
		{Null()},
		{NewInt(0), NewInt(-1), NewInt(1 << 40)},
		{NewFloat(3.14159), NewString(""), NewString("hello\tworld")},
		{NewBool(true), NewBool(false)},
		{NewTuple(Tuple{NewInt(1), NewTuple(Tuple{NewString("nested")})})},
		{NewBag(BagOf([]Tuple{{NewInt(1)}, {NewString("a"), Null()}}...))},
	}
	for _, in := range tuples {
		buf := EncodeTuple(nil, in)
		out, n, err := DecodeTuple(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		if n != len(buf) {
			t.Errorf("decode consumed %d of %d bytes", n, len(buf))
		}
		if !EqualTuples(in, out) {
			t.Errorf("round trip %v -> %v", in, out)
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomTuple(r, 3)
		buf := EncodeTuple(nil, in)
		out, n, err := DecodeTuple(buf)
		if err != nil || n != len(buf) {
			return false
		}
		// Compare structurally (not via Compare, which treats bags as
		// multisets): re-encode and compare bytes.
		return bytes.Equal(buf, EncodeTuple(nil, out))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1},
		{2, byte(KindString), 0xff}, // truncated string length
		{1, 200},                    // unknown kind
		{1, byte(KindFloat), 1, 2},  // short float
	}
	for _, buf := range cases {
		if _, _, err := DecodeTuple(buf); err == nil {
			t.Errorf("decode of corrupt %v succeeded", buf)
		}
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Tuple{
		{NewString("alice"), NewInt(10)},
		{NewString("bob"), NewInt(20)},
		{NewString("carol"), NewFloat(1.5)},
	}
	for _, tu := range want {
		if err := w.Write(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Records != 3 {
		t.Errorf("Records = %d", w.Records)
	}
	if w.Bytes != int64(buf.Len()) {
		t.Errorf("Bytes = %d, buffer has %d", w.Bytes, buf.Len())
	}

	r := NewReader(&buf)
	for i := 0; ; i++ {
		tu, err := r.Read()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("got %d tuples, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !EqualTuples(tu, want[i]) {
			t.Errorf("tuple %d = %v, want %v", i, tu, want[i])
		}
	}
}

func TestHashTupleStable(t *testing.T) {
	a := Tuple{NewString("user1"), NewInt(7)}
	b := Tuple{NewString("user1"), NewInt(7)}
	if HashTuple(a) != HashTuple(b) {
		t.Error("equal tuples must hash equal")
	}
	c := Tuple{NewString("user2"), NewInt(7)}
	if HashTuple(a) == HashTuple(c) {
		t.Error("different tuples should (almost surely) hash differently")
	}
}

// numericTwin returns a value Compare calls equal to v but built
// differently wherever that is possible: ints become floats and integral
// floats within int64 range become ints, zero flips its sign, and bags are
// reversed; the rule recurses into tuples and bags.
func numericTwin(v Value) Value {
	switch v.Kind() {
	case KindInt:
		return NewFloat(float64(v.Int()))
	case KindFloat:
		f := v.Float()
		if f == 0 {
			return NewFloat(math.Copysign(0, -math.Copysign(1, f)))
		}
		if f == math.Trunc(f) && math.Abs(f) < 1<<62 {
			return NewInt(int64(f))
		}
		return v
	case KindTuple:
		return NewTuple(tupleTwin(v.Tuple()))
	case KindBag:
		ts, out := v.Bag().Tuples(), BagOf()
		for i := len(ts) - 1; i >= 0; i-- {
			out.Add(tupleTwin(ts[i]))
		}
		return NewBag(out)
	default:
		return v
	}
}

func tupleTwin(t Tuple) Tuple {
	out := make(Tuple, len(t))
	for i, v := range t {
		out[i] = numericTwin(v)
	}
	return out
}

// TestHashAgreesWithCompareProperty: CompareTuples(a, b) == 0 implies
// HashTuple(a) == HashTuple(b). Pairs are a random tuple and its numeric
// twin (int 3 vs float 3.0, ints past 2^53 vs their float64, -0 vs +0, a
// reordered bag), plus independent draws that happen to compare equal.
// randomValue never draws NaN, which Compare does not order.
func TestHashAgreesWithCompareProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomTuple(r, 3)
		if r.Intn(2) == 0 {
			// Small integral values, so twins exercise the exact-int path.
			a = append(a, NewInt(int64(r.Intn(7)-3)), NewFloat(float64(r.Intn(7)-3)))
		}
		b := tupleTwin(a)
		if CompareTuples(a, b) != 0 {
			t.Errorf("twin compares unequal: %v vs %v", a, b)
			return false
		}
		if HashTuple(a) != HashTuple(b) {
			t.Errorf("equal tuples hash apart: %v vs %v", a, b)
			return false
		}
		c := randomTuple(r, 1)
		return CompareTuples(a, c) != 0 || HashTuple(a) == HashTuple(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, pair := range [][2]Tuple{
		{{NewInt(3)}, {NewFloat(3)}},
		{{NewFloat(0)}, {NewFloat(math.Copysign(0, -1))}},
		{{NewInt(1<<53 + 1)}, {NewInt(1 << 53)}},
		{{NewInt(1<<62 + 1)}, {NewFloat(1 << 62)}},
		{{NewTuple(Tuple{NewInt(-7), NewString("x")})}, {NewTuple(Tuple{NewFloat(-7), NewString("x")})}},
		{{NewBag(BagOf([]Tuple{{NewInt(1)}, {NewInt(2)}}...))}, {NewBag(BagOf([]Tuple{{NewFloat(2)}, {NewInt(1)}}...))}},
	} {
		if CompareTuples(pair[0], pair[1]) != 0 || HashTuple(pair[0]) != HashTuple(pair[1]) {
			t.Errorf("%v and %v: compare %d, hashes %x %x", pair[0], pair[1],
				CompareTuples(pair[0], pair[1]), HashTuple(pair[0]), HashTuple(pair[1]))
		}
	}
}

// TestHashTupleKeepsEncodedHash pins the partition assignment of every key
// without doubles or bags: strings, bools, nulls and ints within ±2^53 hash
// to FNV-1a over their EncodeTuple bytes, as before numbers hashed by value.
func TestHashTupleKeepsEncodedHash(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		var tu Tuple
		for j := r.Intn(4); j >= 0; j-- {
			switch r.Intn(5) {
			case 0:
				tu = append(tu, NewInt(r.Int63n(1<<54)-1<<53))
			case 1:
				tu = append(tu, NewString(string(rune('a'+r.Intn(26)))))
			case 2:
				tu = append(tu, Null())
			case 3:
				tu = append(tu, NewBool(r.Intn(2) == 0))
			default:
				tu = append(tu, NewTuple(Tuple{NewInt(int64(r.Intn(100))), NewString("n")}))
			}
		}
		h := fnv.New64a()
		h.Write(EncodeTuple(nil, tu))
		if got, want := HashTuple(tu), h.Sum64(); got != want {
			t.Fatalf("HashTuple(%v) = %x, want FNV-1a of its encoding %x", tu, got, want)
		}
	}
}

// corruptLengthRecords are records whose length prefix declares far more
// bytes than follow: 2^64-1 (the whole 10-byte input is the prefix) and
// 1 TiB (a 6-byte prefix and 2 bytes of payload).
var corruptLengthRecords = map[string][]byte{
	"len_2^64-1": binary.AppendUvarint(nil, math.MaxUint64),
	"len_1TiB":   append(binary.AppendUvarint(nil, 1<<40), 1, byte(KindNull)),
}

// TestReaderRejectsCorruptLength pins that Reader.Read sizes nothing from
// the length prefix: both inputs fail with an error instead of a slice
// bounds panic or an out-of-memory abort.
func TestReaderRejectsCorruptLength(t *testing.T) {
	for name, in := range corruptLengthRecords {
		if tu, err := NewReader(bytes.NewReader(in)).Read(); err == nil {
			t.Errorf("%s (%d bytes): read %v, want an error", name, len(in), tu)
		}
	}
	if n := len(corruptLengthRecords["len_2^64-1"]); n != 10 {
		t.Errorf("2^64-1 prefix is %d bytes, want 10", n)
	}
	if n := len(corruptLengthRecords["len_1TiB"]); n != 8 {
		t.Errorf("1 TiB input is %d bytes, want 8", n)
	}
}

func TestFormatAndParseTSV(t *testing.T) {
	schema := NewSchema(
		Field{Name: "user", Kind: KindString},
		Field{Name: "n", Kind: KindInt},
		Field{Name: "rev", Kind: KindFloat},
	)
	tu := ParseTSVTyped("alice\t3\t1.25", schema)
	if tu[0].Str() != "alice" || tu[1].Int() != 3 || tu[2].Float() != 1.25 {
		t.Errorf("parsed = %v", tu)
	}
	if got := FormatTSV(tu); got != "alice\t3\t1.25" {
		t.Errorf("FormatTSV = %q", got)
	}
	// Missing and malformed columns become null.
	tu = ParseTSVTyped("bob\tnotanint", schema)
	if !tu[1].IsNull() || !tu[2].IsNull() {
		t.Errorf("expected nulls, got %v", tu)
	}
}

// benchTuples are the records the codec and comparison benchmarks run on:
// a narrow four-column row, and one shaped like a PigMix page_views record
// (9 columns, two of them 350-byte strings).
var benchTuples = []struct {
	name string
	tu   Tuple
}{
	{"narrow", Tuple{NewString("user_1234567"), NewInt(123456), NewFloat(9.99), NewString("page_info_payload")}},
	{"pageviews", Tuple{
		NewString("user_0000421"), NewInt(2), NewInt(37), NewString("term_00123"),
		NewString("10.1.23.45"), NewInt(1325376000), NewFloat(12.75),
		NewString(strings.Repeat("i", 350)), NewString(strings.Repeat("l", 350)),
	}},
}

func BenchmarkEncodeTuple(b *testing.B) {
	tu := benchTuples[0].tu
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeTuple(buf[:0], tu)
	}
}

// BenchmarkDecodeTuple decodes each row shape with the copying decoder
// (DecodeTuple) and with the aliasing one map tasks use (DecodeRecord).
func BenchmarkDecodeTuple(b *testing.B) {
	for _, c := range benchTuples {
		buf := EncodeTuple(nil, c.tu)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeTuple(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/aliased", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeRecord(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompareTuples compares two decoded records that tie on every
// column but the last, the shuffle sort's worst case.
func BenchmarkCompareTuples(b *testing.B) {
	for _, c := range benchTuples {
		x, _, _ := DecodeTuple(EncodeTuple(nil, c.tu))
		y, _, _ := DecodeTuple(EncodeTuple(nil, c.tu))
		y[len(y)-1] = NewString(y[len(y)-1].Str() + "!")
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if CompareTuples(x, y) >= 0 {
					b.Fatal("want x < y")
				}
			}
		})
	}
}

// FuzzDecodeTuple feeds DecodeTuple arbitrary bytes, as a torn partition or
// a hostile peer would. It must never panic or allocate from an unchecked
// length, and whatever it accepts must re-encode to a canonical form that
// decodes back to itself.
func FuzzDecodeTuple(f *testing.F) {
	for _, t := range []Tuple{
		{},
		{Null(), NewBool(true), NewInt(-7), NewFloat(2.5), NewString("a\tb")},
		{NewTuple(Tuple{NewInt(1)}), NewBag(BagOf([]Tuple{{NewInt(1)}, {}}...))},
	} {
		f.Add(EncodeTuple(nil, t))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tup, n, err := DecodeTuple(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := EncodeTuple(nil, tup)
		if EncodedLen(tup) != len(enc) {
			t.Fatalf("EncodedLen(%v) = %d, encoding is %d bytes", tup, EncodedLen(tup), len(enc))
		}
		back, m, err := DecodeTuple(enc)
		if err != nil || m != len(enc) || !bytes.Equal(EncodeTuple(nil, back), enc) {
			t.Fatalf("re-encoding %v does not round-trip: %v", tup, err)
		}
	})
}
