package types

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// goldenPath holds the output of goldenText as generated from the 72-byte
// Value layout that preceded the compact one; the compact layout must
// reproduce it byte for byte.
const goldenPath = "testdata/value_golden.txt"

// edgeTuples are the payloads a layout change is most likely to get wrong:
// integer extremes and ints past 2^53, signed zero, NaN payloads and
// infinities, empty and sub-sliced strings and tuples, nil versus empty
// tuples and bags.
func edgeTuples() []Tuple {
	s := "0123456789abcdef"
	t := Tuple{NewInt(1), NewString("x"), NewFloat(2.5), Null()}
	return []Tuple{
		nil,
		{},
		{Null()},
		{NewBool(true), NewBool(false)},
		{NewInt(0), NewInt(-1), NewInt(1)},
		{NewInt(math.MinInt64), NewInt(math.MaxInt64)},
		{NewInt(1<<53 + 1), NewInt(-(1<<53 + 1)), NewInt(1 << 32), NewInt(1<<32 - 1), NewInt(-1 << 31)},
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewFloat(math.NaN())},
		{NewFloat(math.Float64frombits(0x7ff8000000000001)), NewFloat(math.Float64frombits(0xfff0000000000002))},
		{NewFloat(math.Inf(1)), NewFloat(math.Inf(-1))},
		{NewFloat(math.SmallestNonzeroFloat64), NewFloat(-math.MaxFloat64), NewFloat(1e300)},
		{NewString(""), NewString(s[3:9]), NewString(s[16:])},
		{NewString("tab\there"), NewString("quote\"<&>"), NewString("\x00\xff")},
		{NewTuple(nil), NewTuple(Tuple{}), NewTuple(t[1:3]), NewTuple(t[4:])},
		{NewTuple(Tuple{NewTuple(Tuple{NewInt(-7)})})},
		{NewBag(&Bag{}), NewBag(&Bag{Tuples: []Tuple{nil, {}}})},
		{NewBag(&Bag{Tuples: []Tuple{{NewInt(2)}, {NewFloat(1)}, t[:2]}})},
	}
}

// goldenTuples are the golden's tuples: the edge tuples, then 500 seeded
// random ones.
func goldenTuples() []Tuple {
	tuples := edgeTuples()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		tuples = append(tuples, randomTuple(r, 2))
	}
	return tuples
}

// goldenText renders one line per golden tuple with its EncodeTuple hex,
// HashTuple, the sign of CompareTuples against the previous tuple, String()
// and MarshalJSON (or its error).
func goldenText() string {
	var sb strings.Builder
	var prev Tuple
	for i, tu := range goldenTuples() {
		js, err := NewTuple(tu).MarshalJSON()
		if err != nil {
			js = []byte("error: " + err.Error())
		}
		fmt.Fprintf(&sb, "%d %s %016x %+d %q %q\n", i, hex.EncodeToString(EncodeTuple(nil, tu)),
			HashTuple(tu), CompareTuples(tu, prev), NewTuple(tu).String(), js)
		prev = tu
	}
	return sb.String()
}

// TestValueGolden pins the encoding, hash, order, text and JSON of the
// edge and random tuples to the golden generated from the previous layout.
func TestValueGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(goldenText())
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("golden line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
}
