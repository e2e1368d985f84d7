package types

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"unsafe"
)

// TestEncodedLen pins EncodedLen to EncodeTuple's length on every golden
// tuple: the shuffle byte counter is defined as that length.
func TestEncodedLen(t *testing.T) {
	for i, tu := range goldenTuples() {
		if got, want := EncodedLen(tu), len(EncodeTuple(nil, tu)); got != want {
			t.Errorf("tuple %d %v: EncodedLen %d, encoding is %d bytes", i, tu, got, want)
		}
	}
}

// TestFramingLayout: the Framer and the Writer each lay a record out as
// its encoding's uvarint length, then the encoding, over the golden tuples
// and records whose lengths cross the 1-, 2- and 3-byte prefix widths both
// ways. Take hands out an exact-size payload and the next one starts
// empty.
func TestFramingLayout(t *testing.T) {
	var tuples []Tuple
	for _, n := range []int{0, 300, 5, 20000, 3, 125, 126, 127, 128, 16400, 16380, 1} {
		tuples = append(tuples, Tuple{NewString(strings.Repeat("x", n))})
	}
	tuples = append(tuples, goldenTuples()...)
	var want []byte
	for _, tu := range tuples {
		enc := EncodeTuple(nil, tu)
		want = binary.AppendUvarint(want, uint64(len(enc)))
		want = append(want, enc...)
	}
	if got := recordsOf(tuples...); !bytes.Equal(got, want) {
		t.Error("Writer: payload differs from length-prefixed encodings")
	}
	var f Framer
	defer f.Release()
	for round := 0; round < 2; round++ {
		for _, tu := range tuples {
			f.Write(tu)
		}
		got, n := f.Take()
		if !bytes.Equal(got, want) || n != int64(len(tuples)) {
			t.Errorf("round %d: Framer payload equal %v, %d records, want %d", round, bytes.Equal(got, want), n, len(tuples))
		}
		if cap(got) != len(got) {
			t.Errorf("round %d: Take's payload has cap %d, len %d", round, cap(got), len(got))
		}
	}
	if got, n := f.Take(); got != nil || n != 0 {
		t.Errorf("empty Take = %d bytes, %d records", len(got), n)
	}
}

// trailingRecord frames tu with one byte more than its encoding holds: the
// frame decodes to a tuple that leaves a byte of it unused.
func trailingRecord(tu Tuple) []byte {
	enc := append(EncodeTuple(nil, tu), 0)
	return append(binary.AppendUvarint(nil, uint64(len(enc))), enc...)
}

// TestReadersRejectTrailingBytes: every record reader — the stream reader,
// the slice reader and the read-back kernel — rejects a frame whose tuple
// does not use all of it, after yielding the record before it.
func TestReadersRejectTrailingBytes(t *testing.T) {
	good := Tuple{NewString("ok")}
	payload := append(recordsOf(good), trailingRecord(Tuple{NewInt(1)})...)
	for name, r := range map[string]interface{ Read() (Tuple, error) }{
		"Reader":      NewReader(bytes.NewReader(payload)),
		"SliceReader": NewSliceReader(payload),
	} {
		if tu, err := r.Read(); err != nil || !EqualTuples(tu, good) {
			t.Errorf("%s: first record %v, %v", name, tu, err)
		}
		if tu, err := r.Read(); err == nil || err == io.EOF {
			t.Errorf("%s: trailing-byte record read as %v, %v", name, tu, err)
		}
	}
	if _, ends, err := AppendRecordsTSV(nil, nil, payload); err == nil || len(ends) != 1 {
		t.Errorf("AppendRecordsTSV: %d lines, err %v; want 1 line and an error", len(ends), err)
	}
}

// aliasedStrings reports whether every non-empty string in t points into
// data.
func aliasedStrings(t Tuple, data []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	hi := lo + uintptr(len(data))
	for _, v := range t {
		switch v.Kind() {
		case KindString:
			if s := v.Str(); s != "" {
				p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
				if p < lo || p+uintptr(len(s)) > hi {
					return false
				}
			}
		case KindTuple:
			if !aliasedStrings(v.Tuple(), data) {
				return false
			}
		case KindBag:
			for _, bt := range v.Bag().Tuples() {
				if !aliasedStrings(bt, data) {
					return false
				}
			}
		}
	}
	return true
}

// FuzzDecodeAliased is the differential for the aliasing decode: over
// arbitrary bytes it returns what the copying DecodeTuple returns — an
// equal tuple with the same encoding and length, or the same error — and
// every string it returns points into the input. Its bags may be lazy, so
// the differential also covers the lazy bag's validating walk and its
// verbatim re-encoding.
func FuzzDecodeAliased(f *testing.F) {
	for _, tu := range []Tuple{
		{},
		{NewString(""), NewString("a"), NewString(""), Null()},
		{NewTuple(Tuple{NewString("in"), NewTuple(Tuple{NewString(""), NewInt(-3)})})},
		{NewBag(BagOf([]Tuple{{NewString("x"), NewFloat(1.5)}, {}, {NewBag(BagOf([]Tuple{{NewString("deep")}}...))}}...))},
	} {
		f.Add(EncodeTuple(nil, tu))
	}
	for _, in := range corruptLengthRecords {
		f.Add(in)
	}
	// The canonical-copy edges of a lazy bag: a bool byte 2 and an
	// overlong arity (both decode eagerly and re-encode canonically), and a
	// canonical bag nested in an eager one (it stays lazy).
	f.Add([]byte{1, byte(KindBag), 1, 1, byte(KindBool), 2})
	f.Add([]byte{1, byte(KindBag), 1, 0x81, 0x00, byte(KindNull)})
	f.Add([]byte{1, byte(KindBag), 2, 1, byte(KindBool), 2, 1, byte(KindBag), 1, 1, byte(KindString), 1, 'n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wn, werr := DecodeTuple(data)
		got, gn, gerr := decodeTuple(nil, data, true)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("copying decode err %v, aliasing decode err %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if gn != wn || CompareTuples(got, want) != 0 || !bytes.Equal(EncodeTuple(nil, got), EncodeTuple(nil, want)) || EncodedLen(got) != EncodedLen(want) {
			t.Fatalf("aliasing decode %v (%d bytes), copying decode %v (%d bytes)", got, gn, want, wn)
		}
		if !aliasedStrings(got, data) {
			t.Fatalf("aliasing decode %v copied a string", got)
		}
		rec, err := DecodeRecord(data)
		if (err == nil) != (wn == len(data)) {
			t.Fatalf("DecodeRecord over %d bytes holding a %d-byte tuple: err %v", len(data), wn, err)
		}
		if err != nil {
			return
		}
		// The lending leg: framed as a record between records of other
		// arities, each Read's clone equals DecodeRecord of its record after
		// every later Read has reused the lent spine.
		frame := binary.AppendUvarint(nil, uint64(len(data)))
		frame = append(frame, data...)
		wide := Tuple{NewInt(int64(len(data))), NewTuple(Tuple{NewString("wide")}), Null(), NewBool(true), NewFloat(0.5)}
		records := []Tuple{{NewTuple(Tuple{NewString("first")})}, rec, wide, rec, {}}
		payload := recordsOf(records[0])
		payload = append(payload, frame...)
		payload = append(payload, recordsOf(wide)...)
		payload = append(payload, frame...)
		payload = append(payload, recordsOf(records[4])...)
		r := NewSliceReader(payload)
		var clones []Tuple
		for {
			tu, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("slice reader, record %d: %v", len(clones), err)
			}
			clones = append(clones, tu.Clone())
		}
		if len(clones) != len(records) {
			t.Fatalf("slice reader read %d records, want %d", len(clones), len(records))
		}
		for i, c := range clones {
			if CompareTuples(c, records[i]) != 0 || !bytes.Equal(EncodeTuple(nil, c), EncodeTuple(nil, records[i])) {
				t.Fatalf("record %d: clone of the lent tuple %v, DecodeRecord %v", i, c, records[i])
			}
		}
	})
}

// TestSliceReaderLends pins the slice reader's lending: the next Read
// decodes into the spine the previous one lent, while a Clone taken before
// it, and the previous record's nested tuples, lazy bags and strings, stay
// as they were. Only the top-level spine is lent.
func TestSliceReaderLends(t *testing.T) {
	first := Tuple{
		NewString("alpha"),
		NewTuple(Tuple{NewString("in"), NewInt(1), NewTuple(Tuple{NewFloat(1.5)})}),
		NewBag(BagOf([]Tuple{{NewString("x"), NewInt(1)}, {NewString("y"), NewInt(2)}}...)),
	}
	second := Tuple{
		NewString("omega"),
		NewTuple(Tuple{NewString("other"), NewInt(9), NewTuple(Tuple{NewFloat(-2)})}),
		NewBag(BagOf([]Tuple{{NewString("z"), NewInt(3)}}...)),
	}
	wider := append(second.Clone(), NewInt(4))
	r := NewSliceReader(recordsOf(first, second, wider, first))

	a, err := r.Read()
	if err != nil || !EqualTuples(a, first) {
		t.Fatalf("first Read = %v, %v", a, err)
	}
	clone := a.Clone()
	str, nested, bag := a[0].Str(), a[1].Tuple(), a[2].Bag()
	bagRows := append([]Tuple(nil), bag.Tuples()...)
	nestedEnc, bagEnc := EncodeTuple(nil, nested), EncodeTuple(nil, Tuple{a[2]})

	b, err := r.Read()
	if err != nil || !EqualTuples(b, second) {
		t.Fatalf("second Read = %v, %v", b, err)
	}
	if unsafe.SliceData(a) != unsafe.SliceData(b) {
		t.Error("second Read allocated a spine instead of reusing the lent one")
	}
	if EqualTuples(a, first) {
		t.Error("the lent spine still holds the first record after the next Read")
	}
	if !EqualTuples(clone, first) || !bytes.Equal(EncodeTuple(nil, clone), EncodeTuple(nil, first)) {
		t.Errorf("clone taken before the next Read = %v, want %v", clone, first)
	}
	if str != "alpha" {
		t.Errorf("previous record's string = %q", str)
	}
	if !bytes.Equal(EncodeTuple(nil, nested), nestedEnc) {
		t.Errorf("previous record's nested tuple = %v", nested)
	}
	if !bytes.Equal(EncodeTuple(nil, Tuple{NewBag(bag)}), bagEnc) || bag.Len() != 2 {
		t.Errorf("previous record's bag = %v", bag.Tuples())
	}
	for i, row := range bag.Tuples() {
		if !EqualTuples(row, bagRows[i]) {
			t.Errorf("previous record's bag row %d = %v, want %v", i, row, bagRows[i])
		}
	}

	// A wider record outgrows the spine; the next narrower one reuses the
	// grown spine.
	c, err := r.Read()
	if err != nil || !EqualTuples(c, wider) {
		t.Fatalf("third Read = %v, %v", c, err)
	}
	d, err := r.Read()
	if err != nil || !EqualTuples(d, first) {
		t.Fatalf("fourth Read = %v, %v", d, err)
	}
	if unsafe.SliceData(c) != unsafe.SliceData(d) {
		t.Error("a narrower record did not reuse the grown spine")
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read past the payload = %v, want io.EOF", err)
	}
}
