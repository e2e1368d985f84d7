package types

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"unsafe"
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
// A record (a partition or store payload entry) is one tuple, framed by a
// uvarint length prefix: NextRecord splits records off a payload without
// decoding them, and a reader rejects a record whose tuple leaves bytes of
// its frame unused.

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

// EncodedLen returns len(EncodeTuple(nil, t)) without encoding anything.
func EncodedLen(t Tuple) int {
	n := uvarintLen(uint64(len(t)))
	for i := range t {
		n += encodedValueLen(&t[i])
	}
	return n
}

func encodedValueLen(v *Value) int {
	switch v.kind {
	case KindBool:
		return 2
	case KindInt:
		x := v.integer()
		return 1 + uvarintLen(uint64(x<<1)^uint64(x>>63))
	case KindFloat:
		return 9
	case KindString:
		return 1 + uvarintLen(v.w) + int(v.w)
	case KindTuple:
		return 1 + EncodedLen(v.tuple())
	case KindBag:
		bag := v.bag()
		n := 1 + uvarintLen(uint64(len(bag.Tuples)))
		for _, t := range bag.Tuples {
			n += EncodedLen(t)
		}
		return n
	default:
		return 1
	}
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// NextRecord splits the first length-prefixed record off data: rec is the
// record's encoded tuple and rest the bytes after it. It decodes nothing,
// and fails when the prefix is corrupt or declares more bytes than follow.
func NextRecord(data []byte) (rec, rest []byte, err error) {
	l, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("types: corrupt record length")
	}
	if l > uint64(len(data)-n) {
		return nil, nil, fmt.Errorf("types: short record: %w", io.ErrUnexpectedEOF)
	}
	end := n + int(l)
	return data[n:end], data[end:], nil
}

// DecodeRecord decodes a record NextRecord split off, which must hold
// exactly one tuple. String values alias rec instead of copying it, so rec
// must never be written again: committed DFS partitions, fleet request
// bodies and pulled shuffle runs are all written once.
func DecodeRecord(rec []byte) (Tuple, error) { return decodeRecord(rec, true) }

// decodeRecord decodes one record's tuple and rejects unused frame bytes;
// alias selects whether strings alias rec or are copied out of it.
func decodeRecord(rec []byte, alias bool) (Tuple, error) {
	t, used, err := decodeTuple(rec, alias)
	if err != nil {
		return nil, err
	}
	if used != len(rec) {
		return nil, trailingBytes(len(rec) - used)
	}
	return t, nil
}

func trailingBytes(n int) error {
	return fmt.Errorf("types: record has %d trailing bytes", n)
}

// DecodeTuple decodes one tuple from buf, returning the tuple and the number
// of bytes consumed. Strings are copied: buf may be reused afterwards.
func DecodeTuple(buf []byte) (Tuple, int, error) { return decodeTuple(buf, false) }

// decodeTuple is the one tuple decoder. With alias set, string values point
// into buf (unsafe.String) instead of copying it.
func decodeTuple(buf []byte, alias bool) (Tuple, int, error) {
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
		v, n, err := decodeValue(buf[off:], alias)
		if err != nil {
			return nil, 0, err
		}
		t[i] = v
		off += n
	}
	return t, off, nil
}

func decodeValue(buf []byte, alias bool) (Value, int, error) {
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
		end := off + int(l)
		if !alias || l == 0 {
			return NewString(string(buf[off:end])), end, nil
		}
		return NewString(unsafe.String(&buf[off], int(l))), end, nil
	case KindTuple:
		t, n, err := decodeTuple(buf[off:], alias)
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
			t, n, err := decodeTuple(buf[off:], alias)
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
	return decodeRecord(buf, false)
}

// SliceReader reads length-prefixed records straight out of an in-memory
// payload, with no buffering and no copy: each tuple's strings alias the
// payload (DecodeRecord), which must never be written again.
type SliceReader struct{ data []byte }

// NewSliceReader returns a record reader over data.
func NewSliceReader(data []byte) *SliceReader { return &SliceReader{data: data} }

// Read returns the next tuple or io.EOF. It fails on the record Reader.Read
// fails on.
func (r *SliceReader) Read() (Tuple, error) {
	if len(r.data) == 0 {
		return nil, io.EOF
	}
	rec, rest, err := NextRecord(r.data)
	if err != nil {
		return nil, err
	}
	t, err := DecodeRecord(rec)
	if err != nil {
		return nil, err
	}
	r.data = rest
	return t, nil
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
