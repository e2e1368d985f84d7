package types

import (
	"bytes"
	"encoding/binary"
	"io"
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
			for _, bt := range v.Bag().Tuples {
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
// every string it returns points into the input.
func FuzzDecodeAliased(f *testing.F) {
	for _, tu := range []Tuple{
		{},
		{NewString(""), NewString("a"), NewString(""), Null()},
		{NewTuple(Tuple{NewString("in"), NewTuple(Tuple{NewString(""), NewInt(-3)})})},
		{NewBag(&Bag{Tuples: []Tuple{{NewString("x"), NewFloat(1.5)}, {}, {NewBag(&Bag{Tuples: []Tuple{{NewString("deep")}}})}}})},
	} {
		f.Add(EncodeTuple(nil, tu))
	}
	for _, in := range corruptLengthRecords {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wn, werr := DecodeTuple(data)
		got, gn, gerr := decodeTuple(data, true)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("copying decode err %v, aliasing decode err %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if gn != wn || CompareTuples(got, want) != 0 || !bytes.Equal(EncodeTuple(nil, got), EncodeTuple(nil, want)) {
			t.Fatalf("aliasing decode %v (%d bytes), copying decode %v (%d bytes)", got, gn, want, wn)
		}
		if !aliasedStrings(got, data) {
			t.Fatalf("aliasing decode %v copied a string", got)
		}
		if _, err := DecodeRecord(data); (err == nil) != (wn == len(data)) {
			t.Fatalf("DecodeRecord over %d bytes holding a %d-byte tuple: err %v", len(data), wn, err)
		}
	})
}
