package types

import (
	"bytes"
	"io"
	"math/rand"
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
		{NewBag(&Bag{Tuples: []Tuple{{NewInt(1)}, {NewString("a"), Null()}}})},
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

func BenchmarkEncodeTuple(b *testing.B) {
	tu := Tuple{NewString("user_1234567"), NewInt(123456), NewFloat(9.99), NewString("page_info_payload")}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeTuple(buf[:0], tu)
	}
}

func BenchmarkDecodeTuple(b *testing.B) {
	tu := Tuple{NewString("user_1234567"), NewInt(123456), NewFloat(9.99), NewString("page_info_payload")}
	buf := EncodeTuple(nil, tu)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeTuple(buf); err != nil {
			b.Fatal(err)
		}
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
		{NewTuple(Tuple{NewInt(1)}), NewBag(&Bag{Tuples: []Tuple{{NewInt(1)}, {}}})},
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
		back, m, err := DecodeTuple(enc)
		if err != nil || m != len(enc) || !bytes.Equal(EncodeTuple(nil, back), enc) {
			t.Fatalf("re-encoding %v does not round-trip: %v", tup, err)
		}
	})
}
