package types

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// FormatTSV renders a tuple as a tab-separated line (the human-readable
// export format, mirroring PigStorage).
func FormatTSV(t Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return strings.Join(parts, "\t")
}

// AppendTSV appends FormatTSV's line for the tuple encoded at the front of
// buf (EncodeTuple's layout) to dst, rendering straight from the encoded
// bytes: no Value and no string is built on the way. It returns the extended
// dst and the number of bytes the tuple took, and rejects exactly the inputs
// DecodeTuple rejects.
func AppendTSV(dst, buf []byte) ([]byte, int, error) {
	return appendTupleText(dst, buf, '\t')
}

// AppendRecordsTSV appends one FormatTSV line per record of payload — a
// partition's bytes in Writer's length-prefixed layout — to dst, and the
// end offset in dst of each line to ends. It fails on the record Reader.Read
// fails on; dst and ends then hold the lines of the records before it.
func AppendRecordsTSV(dst []byte, ends []int, payload []byte) ([]byte, []int, error) {
	for off := 0; off < len(payload); {
		l, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return dst, ends, fmt.Errorf("types: corrupt record length")
		}
		off += n
		if l > uint64(len(payload)-off) {
			return dst, ends, fmt.Errorf("types: short record: %w", io.ErrUnexpectedEOF)
		}
		line, _, err := AppendTSV(dst, payload[off:off+int(l)])
		if err != nil {
			return dst, ends, err
		}
		dst = line
		ends = append(ends, len(dst))
		off += int(l)
	}
	return dst, ends, nil
}

// appendTupleText renders an encoded tuple's values joined by sep: a tab
// at the top level, a comma inside a nested tuple or bag (Value.String).
func appendTupleText(dst, buf []byte, sep byte) ([]byte, int, error) {
	arity, n := binary.Uvarint(buf)
	if n <= 0 {
		return dst, 0, fmt.Errorf("types: corrupt tuple arity")
	}
	off := n
	if arity > uint64(len(buf)-off) {
		return dst, 0, io.ErrUnexpectedEOF
	}
	for i := uint64(0); i < arity; i++ {
		if i > 0 {
			dst = append(dst, sep)
		}
		var err error
		if dst, n, err = appendValueText(dst, buf[off:]); err != nil {
			return dst, 0, err
		}
		off += n
	}
	return dst, off, nil
}

// appendValueText is Value.appendText over decodeValue's input.
func appendValueText(dst, buf []byte) ([]byte, int, error) {
	if len(buf) == 0 {
		return dst, 0, io.ErrUnexpectedEOF
	}
	off := 1
	switch Kind(buf[0]) {
	case KindNull:
		return dst, off, nil
	case KindBool:
		if len(buf) < 2 {
			return dst, 0, io.ErrUnexpectedEOF
		}
		return strconv.AppendBool(dst, buf[1] != 0), 2, nil
	case KindInt:
		i, n := binary.Varint(buf[off:])
		if n <= 0 {
			return dst, 0, fmt.Errorf("types: corrupt varint")
		}
		return strconv.AppendInt(dst, i, 10), off + n, nil
	case KindFloat:
		if len(buf) < off+8 {
			return dst, 0, io.ErrUnexpectedEOF
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		return strconv.AppendFloat(dst, f, 'g', -1, 64), off + 8, nil
	case KindString:
		l, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return dst, 0, fmt.Errorf("types: corrupt string length")
		}
		off += n
		if uint64(len(buf)-off) < l {
			return dst, 0, io.ErrUnexpectedEOF
		}
		return append(dst, buf[off:off+int(l)]...), off + int(l), nil
	case KindTuple:
		dst, n, err := appendTupleText(append(dst, '('), buf[off:], ',')
		if err != nil {
			return dst, 0, err
		}
		return append(dst, ')'), off + n, nil
	case KindBag:
		count, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return dst, 0, fmt.Errorf("types: corrupt bag count")
		}
		off += n
		if count > uint64(len(buf)-off) { // every tuple takes at least one byte
			return dst, 0, io.ErrUnexpectedEOF
		}
		dst = append(dst, '{')
		for i := uint64(0); i < count; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, n, err = appendTupleText(append(dst, '('), buf[off:], ','); err != nil {
				return dst, 0, err
			}
			dst = append(dst, ')')
			off += n
		}
		return append(dst, '}'), off, nil
	default:
		return dst, 0, fmt.Errorf("types: unknown kind byte %d", buf[0])
	}
}

// ParseTSVTyped parses one tab-separated line according to a schema. Columns
// with KindNull schema entries stay strings; missing columns become null.
func ParseTSVTyped(line string, schema Schema) Tuple {
	cols := strings.Split(line, "\t")
	n := schema.Len()
	if n == 0 {
		n = len(cols)
	}
	t := make(Tuple, n)
	for i := 0; i < n; i++ {
		if i >= len(cols) {
			t[i] = Null()
			continue
		}
		raw := cols[i]
		kind := KindNull
		if i < schema.Len() {
			kind = schema.Fields[i].Kind
		}
		switch kind {
		case KindInt:
			if iv, ok := CoerceInt(NewString(raw)); ok {
				t[i] = NewInt(iv)
			} else {
				t[i] = Null()
			}
		case KindFloat:
			if fv, ok := CoerceFloat(NewString(raw)); ok {
				t[i] = NewFloat(fv)
			} else {
				t[i] = Null()
			}
		case KindBool:
			t[i] = NewBool(raw == "true")
		default:
			t[i] = NewString(raw)
		}
	}
	return t
}
