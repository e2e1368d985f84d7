package types

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
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
		dst = binary.AppendUvarint(dst, uint64(bag.Len()))
		if l := bag.lazy; l != nil {
			return append(dst, l.enc...)
		}
		for _, t := range bag.tuples {
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
		n := 1 + uvarintLen(uint64(bag.Len()))
		if l := bag.lazy; l != nil {
			return n + len(l.enc)
		}
		for _, t := range bag.tuples {
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
// exactly one tuple. String values alias rec instead of copying it, and a
// non-empty bag stays lazy (see Bag), its encoded tuples aliasing rec, so
// rec must never be written again: committed DFS partitions, fleet request
// bodies and pulled shuffle runs are all written once.
func DecodeRecord(rec []byte) (Tuple, error) { return decodeRecord(nil, rec, true) }

// decodeRecord decodes one record's tuple and rejects unused frame bytes;
// alias selects whether strings alias rec or are copied out of it, and
// spine is passed to decodeTuple.
func decodeRecord(spine Tuple, rec []byte, alias bool) (Tuple, error) {
	t, used, err := decodeTuple(spine, rec, alias)
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
func DecodeTuple(buf []byte) (Tuple, int, error) { return decodeTuple(nil, buf, false) }

// decodeTuple is the one tuple decoder. With alias set, string values point
// into buf (unsafe.String) instead of copying it, and a bag whose bytes
// EncodeTuple would write back unchanged is a lazy bag over buf. The tuple
// is decoded into spine's backing array when spine is non-nil and holds
// the arity, and into a new one otherwise; nested tuples and bags always
// get new ones, so only the top-level spine is ever reused.
func decodeTuple(spine Tuple, buf []byte, alias bool) (Tuple, int, error) {
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
	var t Tuple
	if spine != nil && uint64(cap(spine)) >= arity {
		t = spine[:arity]
	} else {
		t = make(Tuple, arity)
	}
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
		t, n, err := decodeTuple(nil, buf[off:], alias)
		if err != nil {
			return Value{}, 0, err
		}
		return NewTuple(t), off + n, nil
	case KindBag:
		// With alias set, a non-empty bag whose bytes EncodeTuple would
		// write back unchanged stays lazy. Any other bag, a corrupt one
		// included, is decoded eagerly, which reports the error.
		if alias {
			if used, canon, ok := walkValue(buf); ok && canon && buf[1] != 0 {
				count, n := binary.Uvarint(buf[off:])
				return NewBag(newLazyBag(int(count), buf[off+n:used:used])), used, nil
			}
		}
		count, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("types: corrupt bag count")
		}
		off += n
		if count > uint64(len(buf)-off) { // every tuple takes at least one byte
			return Value{}, 0, io.ErrUnexpectedEOF
		}
		tuples := make([]Tuple, count)
		for i := range tuples {
			t, n, err := decodeTuple(nil, buf[off:], alias)
			if err != nil {
				return Value{}, 0, err
			}
			tuples[i] = t
			off += n
		}
		return NewBag(BagOf(tuples...)), off, nil
	default:
		return Value{}, 0, fmt.Errorf("types: unknown kind byte %d", buf[0])
	}
}

// maxPooledFrame caps the capacity of the buffers framePool keeps: a
// larger one, grown by one oversized partition or record, is left to the
// collector instead of being pinned for every later task.
const maxPooledFrame = 4 << 20

// frameBufs is what a Framer takes from framePool: the payload's growth
// buffer and the scratch buffer one record is encoded into.
type frameBufs struct {
	buf, scratch []byte
}

// framePool holds the Framers' buffers, reused across tasks.
var framePool = sync.Pool{
	New: func() any { return &frameBufs{buf: make([]byte, 0, 4096)} },
}

// Framer frames records into a growth buffer taken from a pool and reused
// across tasks, and hands each finished payload out as one exact-size
// copy. Only the copy leaves the Framer: it is never pooled and never
// written again, so it can become a committed DFS partition that aliasing
// readers (DecodeRecord) decode in place. The zero value is ready to use;
// Release returns the buffers to the pool. A Framer is not safe for
// concurrent use.
type Framer struct {
	b       *frameBufs
	records int64
}

// Write appends t as one record: the uvarint length of its encoding, then
// EncodeTuple's bytes (Writer's layout).
func (f *Framer) Write(t Tuple) {
	if f.b == nil {
		f.b = framePool.Get().(*frameBufs)
	}
	b := f.b
	b.scratch = EncodeTuple(b.scratch[:0], t)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(b.scratch)))
	b.buf = append(b.buf, b.scratch...)
	f.records++
}

// Take returns the records written since the last Take as one exact-size
// payload (nil when there are none) and their count, and starts the next
// payload empty.
func (f *Framer) Take() ([]byte, int64) {
	n := f.records
	f.records = 0
	if f.b == nil || len(f.b.buf) == 0 {
		return nil, n
	}
	out := make([]byte, len(f.b.buf))
	copy(out, f.b.buf)
	f.b.buf = f.b.buf[:0]
	return out, n
}

// Release drops any records not yet taken and returns the buffers to the
// pool, unless one grew past maxPooledFrame. The Framer may be written
// again afterwards.
func (f *Framer) Release() {
	if f.b == nil {
		return
	}
	if cap(f.b.buf) <= maxPooledFrame && cap(f.b.scratch) <= maxPooledFrame {
		f.b.buf = f.b.buf[:0]
		framePool.Put(f.b)
	}
	f.b, f.records = nil, 0
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
	return decodeRecord(nil, buf, false)
}

// SliceReader reads length-prefixed records straight out of an in-memory
// payload, with no buffering and no copy: each tuple's strings alias the
// payload (DecodeRecord), which must never be written again.
//
// The tuples it returns are lent: every record's top-level spine is decoded
// into one spine the reader owns, which its next Read overwrites. Values
// taken out of a lent tuple stay valid (their strings alias the payload, and
// nested tuples and bags are allocated per record as DecodeRecord allocates
// them); a caller that keeps the tuple itself keeps a Clone of it.
type SliceReader struct {
	data  []byte
	spine Tuple
}

// NewSliceReader returns a record reader over data.
func NewSliceReader(data []byte) *SliceReader { return &SliceReader{data: data} }

// Read returns the next tuple, lent until the next Read, or io.EOF. It fails
// on the record Reader.Read fails on.
func (r *SliceReader) Read() (Tuple, error) {
	if len(r.data) == 0 {
		return nil, io.EOF
	}
	rec, rest, err := NextRecord(r.data)
	if err != nil {
		return nil, err
	}
	t, err := decodeRecord(r.spine, rec, true)
	if err != nil {
		return nil, err
	}
	if cap(t) > cap(r.spine) {
		r.spine = t
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
		tuples := v.bag().Tuples()
		var sum uint64
		for _, t := range tuples {
			sum += hashTuple(fnvOffset, t)
		}
		h = hashUvarint(hashByte(h, byte(KindBag)), uint64(len(tuples)))
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
