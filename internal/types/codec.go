package types

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// The binary codec is the storage and shuffle format. Layout per value:
//
//	kind byte, then payload:
//	  null            -> nothing
//	  bool            -> 1 byte
//	  int             -> uvarint(zigzag)
//	  float           -> 8 bytes big endian IEEE-754
//	  string          -> uvarint length + bytes
//	  tuple           -> uvarint arity + values
//	  bag             -> uvarint count + tuples (each as a tuple payload)
//
// A record on disk is one tuple value. Records are length-prefixed so a
// reader can skip without decoding.

// EncodeTuple appends the binary encoding of t to dst and returns it.
func EncodeTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = encodeValue(dst, v)
	}
	return dst
}

func encodeValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		dst = append(dst, byte(v.w))
	case KindInt:
		dst = binary.AppendVarint(dst, v.integer())
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, v.w)
	case KindString:
		dst = binary.AppendUvarint(dst, v.w)
		dst = append(dst, v.str()...)
	case KindTuple:
		dst = EncodeTuple(dst, v.tuple())
	case KindBag:
		bag := v.bag()
		dst = binary.AppendUvarint(dst, uint64(len(bag.Tuples)))
		for _, t := range bag.Tuples {
			dst = EncodeTuple(dst, t)
		}
	}
	return dst
}

// DecodeTuple decodes one tuple from buf, returning the tuple and the number
// of bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	arity, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("types: corrupt tuple arity")
	}
	off := n
	// Every value takes at least one byte, so an arity past the bytes left
	// is corrupt; checking first keeps a bad length from sizing the slice.
	if arity > uint64(len(buf)-off) {
		return nil, 0, io.ErrUnexpectedEOF
	}
	t := make(Tuple, arity)
	for i := range t {
		v, n, err := decodeValue(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		t[i] = v
		off += n
	}
	return t, off, nil
}

func decodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Value{}, 0, io.ErrUnexpectedEOF
	}
	kind := Kind(buf[0])
	off := 1
	switch kind {
	case KindNull:
		return Null(), off, nil
	case KindBool:
		if len(buf) < 2 {
			return Value{}, 0, io.ErrUnexpectedEOF
		}
		return NewBool(buf[1] != 0), 2, nil
	case KindInt:
		i, n := binary.Varint(buf[off:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("types: corrupt varint")
		}
		return NewInt(i), off + n, nil
	case KindFloat:
		if len(buf) < off+8 {
			return Value{}, 0, io.ErrUnexpectedEOF
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		return NewFloat(f), off + 8, nil
	case KindString:
		l, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("types: corrupt string length")
		}
		off += n
		if uint64(len(buf)-off) < l {
			return Value{}, 0, io.ErrUnexpectedEOF
		}
		return NewString(string(buf[off : off+int(l)])), off + int(l), nil
	case KindTuple:
		t, n, err := DecodeTuple(buf[off:])
		if err != nil {
			return Value{}, 0, err
		}
		return NewTuple(t), off + n, nil
	case KindBag:
		count, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("types: corrupt bag count")
		}
		off += n
		if count > uint64(len(buf)-off) { // every tuple takes at least one byte
			return Value{}, 0, io.ErrUnexpectedEOF
		}
		bag := &Bag{Tuples: make([]Tuple, 0, count)}
		for i := uint64(0); i < count; i++ {
			t, n, err := DecodeTuple(buf[off:])
			if err != nil {
				return Value{}, 0, err
			}
			bag.Add(t)
			off += n
		}
		return NewBag(bag), off, nil
	default:
		return Value{}, 0, fmt.Errorf("types: unknown kind byte %d", buf[0])
	}
}

// Writer streams length-prefixed tuple records to an io.Writer.
type Writer struct {
	w       *bufio.Writer
	scratch []byte
	// Records and Bytes count what has been written.
	Records int64
	Bytes   int64
}

// NewWriter wraps w in a record writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one tuple record.
func (w *Writer) Write(t Tuple) error {
	w.scratch = EncodeTuple(w.scratch[:0], t)
	var lenbuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenbuf[:], uint64(len(w.scratch)))
	if _, err := w.w.Write(lenbuf[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(w.scratch); err != nil {
		return err
	}
	w.Records++
	w.Bytes += int64(n + len(w.scratch))
	return nil
}

// Flush flushes the underlying buffer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams length-prefixed tuple records from an io.Reader.
type Reader struct {
	r       *bufio.Reader
	scratch []byte
}

// NewReader wraps r in a record reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// readChunk bounds how far Reader.Read grows its buffer ahead of the bytes
// that have arrived.
const readChunk = 64 << 10

// Read returns the next tuple or io.EOF.
//
// The record's length prefix is not trusted to size anything: the buffer
// grows a chunk at a time as bytes arrive, so a corrupt or hostile prefix
// (up to 2^64-1) costs at most one chunk before the short read fails.
func (r *Reader) Read() (Tuple, error) {
	l, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, err
	}
	buf := r.scratch[:0]
	for uint64(len(buf)) < l {
		n := int(min(l-uint64(len(buf)), readChunk))
		buf = slices.Grow(buf, n)
		m, err := io.ReadFull(r.r, buf[len(buf):len(buf)+n])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, fmt.Errorf("types: short record: %w", err)
		}
	}
	r.scratch = buf
	t, _, err := DecodeTuple(buf)
	return t, err
}

// HashTuple returns a stable 64-bit hash of the tuple, used to partition
// shuffle keys across reducers. It agrees with CompareTuples: tuples that
// compare equal hash equal, so one reducer sees every record of a key.
// Numbers hash by value through float64, as Compare orders them — int 3 and
// float 3.0 hash alike, as do two ints past 2^53 that round to one float64,
// and -0 hashes as +0 — and a bag hashes as the multiset Compare sees,
// whatever its tuple order. For strings, and for ints of magnitude at most
// 2^53, the hash is FNV-1a over the value's EncodeTuple bytes.
func HashTuple(t Tuple) uint64 { return hashTuple(fnvOffset, t) }

// FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashTuple(h uint64, t Tuple) uint64 {
	h = hashUvarint(h, uint64(len(t)))
	for i := range t {
		h = hashValue(h, &t[i])
	}
	return h
}

// hashValue feeds one value into h in its encoded layout, except that
// numbers are first brought to one form per Compare-equal class: an integral
// float64 within ±2^53 hashes as that int, anything else as float bits.
func hashValue(h uint64, v *Value) uint64 {
	switch v.kind {
	case KindInt, KindFloat:
		f, _ := v.AsFloat()
		if f == math.Trunc(f) && math.Abs(f) <= 1<<53 {
			return hashVarint(hashByte(h, byte(KindInt)), int64(f))
		}
		return hashUint64(hashByte(h, byte(KindFloat)), math.Float64bits(f))
	case KindBool:
		return hashByte(hashByte(h, byte(KindBool)), byte(v.w))
	case KindString:
		s := v.str()
		h = hashUvarint(hashByte(h, byte(KindString)), uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h = hashByte(h, s[i])
		}
		return h
	case KindTuple:
		return hashTuple(hashByte(h, byte(KindTuple)), v.tuple())
	case KindBag:
		// Summing per-tuple hashes makes the bag's hash order-free.
		bag := v.bag()
		var sum uint64
		for _, t := range bag.Tuples {
			sum += hashTuple(fnvOffset, t)
		}
		h = hashUvarint(hashByte(h, byte(KindBag)), uint64(len(bag.Tuples)))
		return hashUint64(h, sum)
	default:
		return hashByte(h, byte(v.kind))
	}
}

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashUvarint(h, x uint64) uint64 {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	for _, b := range buf[:n] {
		h = hashByte(h, b)
	}
	return h
}

// hashVarint feeds x zigzag-encoded, as binary.PutVarint lays it out.
func hashVarint(h uint64, x int64) uint64 { return hashUvarint(h, uint64(x<<1)^uint64(x>>63)) }

// hashUint64 feeds x big-endian, the float payload's encoded byte order.
func hashUint64(h, x uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = hashByte(h, byte(x>>uint(shift)))
	}
	return h
}
