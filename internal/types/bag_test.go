package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"
	"unsafe"
)

// decodeAliased frames tu as a record and decodes it as a map task reads a
// committed partition: strings and bags alias the returned bytes.
func decodeAliased(t testing.TB, tu Tuple) (Tuple, []byte) {
	t.Helper()
	rec := EncodeTuple(nil, tu)
	got, err := DecodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return got, rec
}

func isLazy(v Value) bool { return v.Kind() == KindBag && v.Bag().lazy != nil }

// lazyBagRows are the tuples of the bags the lazy-bag tests decode: every
// scalar kind, short and empty rows, and a nested bag.
func lazyBagRows() []Tuple {
	return []Tuple{
		{NewString("alice"), NewInt(3), NewFloat(1.5)},
		{},
		{NewString("bob")},
		{NewString("carol"), NewInt(1<<53 + 1), NewFloat(math.NaN()), NewBool(true)},
		{Null(), Null(), NewString("7")},
		{NewString("dave"), NewInt(-4), NewBag(BagOf([]Tuple{{NewString("deep"), NewInt(1)}, {}}...))},
	}
}

// TestLazyBagDecode: the aliasing decode keeps a non-empty canonical bag
// lazy, nested bags included, and a lazy bag reads as its eager twin
// through every reader: Len, Tuples, Column, Compare, HashTuple, String,
// EncodeTuple and EncodedLen.
func TestLazyBagDecode(t *testing.T) {
	eager := Tuple{NewString("k"), NewBag(BagOf(lazyBagRows()...)), NewBag(BagOf())}
	got, rec := decodeAliased(t, eager)
	if !isLazy(got[1]) {
		t.Fatal("non-empty canonical bag decoded eagerly")
	}
	if isLazy(got[2]) {
		t.Error("empty bag decoded lazily")
	}
	bag := got[1].Bag()
	if bag.Len() != len(lazyBagRows()) {
		t.Errorf("Len %d, want %d", bag.Len(), len(lazyBagRows()))
	}
	for i := 0; i < 5; i++ {
		var lazyCol []Value
		for f := bag.Column(i); f.Next(); {
			lazyCol = append(lazyCol, f.Value())
		}
		var want []Value
		for _, row := range lazyBagRows() {
			if i < len(row) {
				want = append(want, row[i])
			}
		}
		if CompareTuples(lazyCol, want) != 0 || !bytes.Equal(EncodeTuple(nil, lazyCol), EncodeTuple(nil, want)) {
			t.Errorf("Column(%d) = %v, want %v", i, Tuple(lazyCol), Tuple(want))
		}
	}
	var firsts []Value
	for f := bag.Firsts(); f.Next(); {
		firsts = append(firsts, f.Value())
	}
	if want := (Tuple{NewString("alice"), Null(), NewString("bob"), NewString("carol"), Null(), NewString("dave")}); CompareTuples(firsts, want) != 0 {
		t.Errorf("Firsts = %v, want %v", Tuple(firsts), want)
	}
	if !bytes.Equal(EncodeTuple(nil, got), rec) || EncodedLen(got) != len(rec) {
		t.Errorf("lazy record re-encodes to %d bytes (EncodedLen %d), want the %d it was decoded from",
			len(EncodeTuple(nil, got)), EncodedLen(got), len(rec))
	}
	if CompareTuples(got, eager) != 0 || HashTuple(got) != HashTuple(eager) {
		t.Error("lazy record differs from its eager twin under Compare or HashTuple")
	}
	ts := bag.Tuples()
	if !isLazy(got[1]) || !isLazy(ts[5][2]) {
		t.Error("Tuples decoded the bag eagerly or its nested bag eagerly")
	}
	if FormatTSV(got) != FormatTSV(eager) {
		t.Errorf("String %q, want %q", FormatTSV(got), FormatTSV(eager))
	}
	if !aliasedStrings(got, rec) {
		t.Error("a decoded string does not alias the record")
	}
}

// TestLazyBagNonCanonicalIsEager: a bag holding bytes EncodeTuple would not
// write back as they are (an overlong uvarint, a bool byte past 1) decodes
// eagerly, so re-encoding it writes the canonical form the copying decode
// writes, never the input verbatim.
func TestLazyBagNonCanonicalIsEager(t *testing.T) {
	overlong := func(x uint64) []byte { // x's uvarint, one byte too long
		b := binary.AppendUvarint(nil, x)
		b[len(b)-1] |= 0x80
		return append(b, 0)
	}
	inner := func(tuple ...[]byte) []byte { // a record holding one bag of the given tuples
		b := []byte{1, byte(KindBag)}
		b = binary.AppendUvarint(b, uint64(len(tuple)))
		for _, tu := range tuple {
			b = append(b, tu...)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, rec := range map[string][]byte{
		"bool byte 2":         inner([]byte{1, byte(KindBool), 2}),
		"overlong arity":      inner(cat(overlong(1), []byte{byte(KindNull)})),
		"overlong int":        inner(cat([]byte{1, byte(KindInt)}, overlong(6))),
		"overlong string":     inner(cat([]byte{1, byte(KindString)}, overlong(1), []byte("s"))),
		"overlong count":      cat([]byte{1, byte(KindBag)}, overlong(1), []byte{1, byte(KindNull)}),
		"nested tuple bool":   inner([]byte{1, byte(KindTuple), 1, byte(KindBool), 7}),
		"nested bag overlong": inner(cat([]byte{1, byte(KindBag), 1}, overlong(0))),
	} {
		want, wn, err := DecodeTuple(rec)
		if err != nil || wn != len(rec) {
			t.Fatalf("%s: copying decode %v, %d of %d bytes", name, err, wn, len(rec))
		}
		got, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if isLazy(got[0]) {
			t.Errorf("%s: decoded lazily", name)
		}
		enc := EncodeTuple(nil, got)
		if bytes.Equal(enc, rec) || !bytes.Equal(enc, EncodeTuple(nil, want)) || EncodedLen(got) != len(enc) {
			t.Errorf("%s: re-encodes to % x, want the canonical % x", name, enc, EncodeTuple(nil, want))
		}
	}
}

// TestLazyBagIsolation: Add on a lazy bag copies its tuples out first. The
// record's bytes, a second bag of the same record, the same record decoded
// again and a slice Tuples returned before the Add all stay as they were,
// and the bag itself reads as the eager bag with the tuple added.
func TestLazyBagIsolation(t *testing.T) {
	rows := lazyBagRows()
	eager := Tuple{NewBag(BagOf(rows...)), NewBag(BagOf(rows...))}
	got, rec := decodeAliased(t, eager)
	again, err := DecodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), rec...)
	before := got[0].Bag().Tuples()
	added := Tuple{NewString("zed"), NewInt(9)}
	for round := 0; round < 2; round++ {
		got[0].Bag().Add(added)
		got[1].Bag().Tuples() // the sibling decoded, then left alone
	}
	if !bytes.Equal(rec, orig) {
		t.Fatal("Add wrote into the record's bytes")
	}
	want := append(append(append([]Tuple(nil), rows...), added), added)
	grown := Tuple{NewBag(BagOf(want...)), NewBag(BagOf(rows...))}
	if got[0].Bag().Len() != len(want) || !bytes.Equal(EncodeTuple(nil, got), EncodeTuple(nil, grown)) || EncodedLen(got) != len(EncodeTuple(nil, grown)) {
		t.Errorf("after Add the record encodes as %v, want %v", got, grown)
	}
	var col []Value
	for f := got[0].Bag().Column(0); f.Next(); {
		col = append(col, f.Value())
	}
	if len(col) != len(want)-1 || !Equal(col[len(col)-1], NewString("zed")) {
		t.Errorf("Column(0) after Add = %v", Tuple(col))
	}
	if len(before) != len(rows) {
		t.Errorf("the slice Tuples returned before Add changed: %d tuples", len(before))
	}
	for i, tu := range before {
		if !EqualTuples(tu, rows[i]) {
			t.Errorf("tuple %d of the earlier Tuples slice changed to %v", i, tu)
		}
	}
	for name, v := range map[string]Value{"sibling": got[1], "second decode": again[0], "second decode sibling": again[1]} {
		if !isLazy(v) || v.Bag().Len() != len(rows) || !bytes.Equal(EncodeTuple(nil, Tuple{v}), EncodeTuple(nil, Tuple{eager[0]})) {
			t.Errorf("%s changed: %v", name, v)
		}
	}
}

// TestLazyBagConcurrentReaders: goroutines reading one lazy bag at once, in
// every way a sort or a fold reads it, all see the one slice the bag
// decodes to, and the same values.
func TestLazyBagConcurrentReaders(t *testing.T) {
	eager := Tuple{NewBag(BagOf(lazyBagRows()...))}
	got, _ := decodeAliased(t, eager)
	bag := got[0].Bag()
	const readers = 8
	var wg sync.WaitGroup
	spines := make([]*Tuple, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for f := bag.Column(1); f.Next(); {
				_ = f.Value().Kind()
			}
			if CompareTuples(got, eager) != 0 || HashTuple(got) != HashTuple(eager) {
				t.Error("lazy bag differs from its eager twin")
			}
			if FormatTSV(got) != FormatTSV(eager) || bag.Len() != len(lazyBagRows()) {
				t.Error("lazy bag renders differently")
			}
			spines[r] = unsafe.SliceData(bag.Tuples())
		}(r)
	}
	wg.Wait()
	for r := range spines {
		if spines[r] != spines[0] {
			t.Fatalf("reader %d got a second decode of the bag", r)
		}
	}
}
