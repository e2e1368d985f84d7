package types

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// hostileTuples are rows whose text form stresses a reply encoder: nested
// tuples and bags, floats with unusual text (NaN, ±Inf, -0, 1e21), and
// strings holding a tab, JSON and HTML metacharacters, control bytes,
// invalid UTF-8 and the JavaScript line separators U+2028 and U+2029.
var hostileTuples = []Tuple{
	{},
	{Null(), NewBool(true), NewBool(false), NewInt(math.MinInt64), NewInt(math.MaxInt64)},
	{NewTuple(Tuple{NewInt(1), NewTuple(Tuple{NewString("in"), Null()})}), NewTuple(Tuple{})},
	{NewBag(BagOf([]Tuple{{NewInt(1), NewString("a")}, {}, {NewBag(BagOf())}}...))},
	{NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.Copysign(0, -1)), NewFloat(1e21), NewFloat(0.1)},
	{NewString("tab\there"), NewString(`say "hi" \ back`), NewString("<script>&amp;</script>")},
	{NewString("\x00\x01\b\f\n\r\x1f\x7f"), NewString("bad \xff\xfe utf8 \xc3"), NewString("line\u2028para\u2029end")},
}

// recordsOf lays tuples out as one partition payload, as Writer stores it.
func recordsOf(tuples ...Tuple) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, t := range tuples {
		if err := w.Write(t); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzRecordsTSV treats arbitrary bytes as a partition payload. The read-back
// kernel (AppendRecordsTSV), the stream reader (Reader.Read, then FormatTSV)
// and the slice reader (SliceReader.Read, then FormatTSV) must produce the
// same lines and fail on the same record.
func FuzzRecordsTSV(f *testing.F) {
	f.Add(recordsOf(hostileTuples...))
	for _, t := range hostileTuples {
		f.Add(recordsOf(t))
	}
	for _, in := range corruptLengthRecords {
		f.Add(in)
	}
	// A good record, then a corrupt one: the first line must survive.
	f.Add(append(recordsOf(hostileTuples[1]), corruptLengthRecords["len_1TiB"]...))
	// A good record, then one whose tuple leaves a byte of its frame unused.
	f.Add(append(recordsOf(hostileTuples[1]), trailingRecord(hostileTuples[5])...))
	f.Fuzz(func(t *testing.T, payload []byte) {
		text, ends, err := AppendRecordsTSV(nil, nil, payload)
		for name, r := range map[string]interface{ Read() (Tuple, error) }{
			"Reader":      NewReader(bytes.NewReader(payload)),
			"SliceReader": NewSliceReader(payload),
		} {
			var want []string
			var werr error
			for {
				tu, err := r.Read()
				if err == io.EOF {
					break
				}
				if err != nil {
					werr = err
					break
				}
				want = append(want, FormatTSV(tu))
			}
			if (err == nil) != (werr == nil) || len(ends) != len(want) {
				t.Fatalf("kernel: %d lines, err %v; %s: %d lines, err %v", len(ends), err, name, len(want), werr)
			}
			start := 0
			for i, end := range ends {
				if got := string(text[start:end]); got != want[i] {
					t.Fatalf("line %d: kernel %q, %s then FormatTSV %q", i, got, name, want[i])
				}
				start = end
			}
			if start != len(text) {
				t.Fatalf("%d bytes past the last line", len(text)-start)
			}
		}
	})
}
