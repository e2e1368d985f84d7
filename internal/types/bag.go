package types

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
)

// Bag is a collection of tuples. Bags preserve insertion order internally but
// are compared as multisets.
//
// A bag is eager, its tuples in memory, or lazy: the aliasing decode
// (DecodeRecord, SliceReader) keeps a stored bag as its tuple count and its
// encoded tuples, aliasing the record as its strings do, and builds no
// Tuple until one is asked for. Column and Firsts read one field of each
// tuple straight off the bytes; Tuples decodes the whole bag once, and
// every later call, from any goroutine, returns that one slice. The tuples
// are reachable only through Len, Tuples, Column and Firsts, so every
// reader works on both forms.
type Bag struct {
	tuples []Tuple
	lazy   *lazyBag // non-nil while the bag is lazy
}

// lazyBag is a lazy bag's encoded form. It holds the Bag it hands out, so
// the decoder allocates the two at once.
type lazyBag struct {
	bag Bag
	n   int
	// enc is the n tuples in EncodeTuple's layout, back to back, with
	// cap == len. The walk that admitted it found every uvarint minimal
	// and every bool byte 0 or 1, so EncodeTuple writing enc back
	// verbatim writes what it would write for the decoded tuples.
	enc []byte
	mu  sync.Mutex
	mat atomic.Pointer[[]Tuple] // the decoded tuples, once built
}

// BagOf returns an eager bag holding tuples. The bag keeps the slice: the
// caller must not write into it afterwards.
func BagOf(tuples ...Tuple) *Bag { return &Bag{tuples: tuples} }

// Len returns the number of tuples in the bag.
func (b *Bag) Len() int {
	if b.lazy != nil {
		return b.lazy.n
	}
	return len(b.tuples)
}

// Tuples returns the bag's tuples, decoding a lazy bag the first time it
// is asked. The slice is the bag's own: callers must not write into it.
func (b *Bag) Tuples() []Tuple {
	if b.lazy != nil {
		return b.lazy.tuples()
	}
	return b.tuples
}

// Add adds the tuple to the bag. A lazy bag first becomes an eager one
// holding a private copy of its tuples, so no slice Tuples handed out, and
// no byte of the record it was decoded from, changes.
func (b *Bag) Add(t Tuple) {
	if b.lazy != nil {
		ts := b.lazy.tuples()
		b.tuples = make([]Tuple, len(ts), len(ts)+1)
		copy(b.tuples, ts)
		b.lazy = nil
	}
	b.tuples = append(b.tuples, t)
}

// Column returns an iterator over field i of each tuple, in the bag's
// order, skipping every tuple shorter than i+1: the values AGG(bag.$i)
// folds. A lazy bag not yet decoded is read in place: only field i of each
// tuple is decoded, with strings aliasing the record.
func (b *Bag) Column(i int) Fields { return b.fields(i, false) }

// Firsts returns an iterator over each tuple's first field, null for an
// empty tuple: the values AGG(bag) folds. It reads a lazy bag as Column
// does.
func (b *Bag) Firsts() Fields { return b.fields(0, true) }

func (b *Bag) fields(i int, pad bool) Fields {
	if l := b.lazy; l != nil && l.mat.Load() == nil {
		return Fields{enc: l.enc, left: l.n, i: i, pad: pad}
	}
	return Fields{tuples: b.Tuples(), i: i, pad: pad}
}

// Fields iterates one field of each tuple of a bag (Bag.Column,
// Bag.Firsts):
//
//	for f := bag.Column(i); f.Next(); {
//		v := f.Value()
//	}
//
// It allocates nothing beyond what decoding a nested tuple or bag field
// takes.
type Fields struct {
	tuples []Tuple // the tuples not yet read
	enc    []byte  // or, for a lazy bag, their encoding
	left   int     // and their count
	i      int
	pad    bool // yield null for a tuple shorter than i+1
	v      Value
}

// Next advances to the next value, reporting false after the last.
func (f *Fields) Next() bool {
	for len(f.tuples) > 0 {
		t := f.tuples[0]
		f.tuples = f.tuples[1:]
		if f.i < len(t) {
			f.v = t[f.i]
			return true
		}
		if f.pad {
			f.v = Null()
			return true
		}
	}
	for f.left > 0 {
		f.left--
		arity, off := binary.Uvarint(f.enc)
		found := uint64(f.i) < arity
		for j := uint64(0); j < arity; j++ {
			if j == uint64(f.i) {
				v, n, err := decodeValue(f.enc[off:], true)
				if err != nil {
					panic("types: lazy bag no longer decodes: " + err.Error())
				}
				f.v = v
				off += n
				continue
			}
			n, _, _ := walkValue(f.enc[off:])
			off += n
		}
		f.enc = f.enc[off:]
		if found {
			return true
		}
		if f.pad {
			f.v = Null()
			return true
		}
	}
	return false
}

// Value returns the value Next advanced to.
func (f *Fields) Value() Value { return f.v }

// tuples decodes the bag once; concurrent first callers wait for the one
// decode.
func (l *lazyBag) tuples() []Tuple {
	if p := l.mat.Load(); p != nil {
		return *p
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.mat.Load(); p != nil {
		return *p
	}
	ts := make([]Tuple, l.n)
	off := 0
	for k := range ts {
		t, n, err := decodeTuple(nil, l.enc[off:], true)
		if err != nil {
			panic("types: lazy bag no longer decodes: " + err.Error())
		}
		ts[k] = t
		off += n
	}
	l.mat.Store(&ts)
	return ts
}

// newLazyBag returns a lazy bag of the n tuples encoded in enc, which
// walkValue found canonical.
func newLazyBag(n int, enc []byte) *Bag {
	l := &lazyBag{n: n, enc: enc}
	l.bag.lazy = l
	return &l.bag
}

// walkTuple checks the tuple encoded at the front of buf against exactly
// the rules decodeTuple applies, allocating nothing. It returns the bytes
// the tuple takes, whether EncodeTuple would write those bytes back
// unchanged (every uvarint minimal, every bool byte 0 or 1), and ok false
// where decodeTuple fails.
func walkTuple(buf []byte) (used int, canon, ok bool) {
	arity, n := binary.Uvarint(buf)
	if n <= 0 || arity > uint64(len(buf)-n) {
		return 0, false, false
	}
	off, canon := n, n == uvarintLen(arity)
	for j := uint64(0); j < arity; j++ {
		m, c, ok := walkValue(buf[off:])
		if !ok {
			return 0, false, false
		}
		off += m
		canon = canon && c
	}
	return off, canon, true
}

// walkValue is walkTuple for one value (decodeValue's rules).
func walkValue(buf []byte) (used int, canon, ok bool) {
	if len(buf) == 0 {
		return 0, false, false
	}
	switch Kind(buf[0]) {
	case KindNull:
		return 1, true, true
	case KindBool:
		if len(buf) < 2 {
			return 0, false, false
		}
		return 2, buf[1] <= 1, true
	case KindInt:
		// binary.Varint accepts what binary.Uvarint accepts, and the
		// zigzag form it decodes is that uvarint.
		x, n := binary.Uvarint(buf[1:])
		if n <= 0 {
			return 0, false, false
		}
		return 1 + n, n == uvarintLen(x), true
	case KindFloat:
		if len(buf) < 9 {
			return 0, false, false
		}
		return 9, true, true
	case KindString:
		l, n := binary.Uvarint(buf[1:])
		if n <= 0 || uint64(len(buf)-1-n) < l {
			return 0, false, false
		}
		return 1 + n + int(l), n == uvarintLen(l), true
	case KindTuple:
		m, canon, ok := walkTuple(buf[1:])
		return 1 + m, canon, ok
	case KindBag:
		count, n := binary.Uvarint(buf[1:])
		if n <= 0 || count > uint64(len(buf)-1-n) {
			return 0, false, false
		}
		off, canon := 1+n, n == uvarintLen(count)
		for k := uint64(0); k < count; k++ {
			m, c, ok := walkTuple(buf[off:])
			if !ok {
				return 0, false, false
			}
			off += m
			canon = canon && c
		}
		return off, canon, true
	default:
		return 0, false, false
	}
}

func compareBags(a, b *Bag) int {
	as := a.sortedCopy()
	bs := b.sortedCopy()
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		if c := CompareTuples(as[i], bs[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(as) < len(bs):
		return -1
	case len(as) > len(bs):
		return 1
	default:
		return 0
	}
}

func (b *Bag) sortedCopy() []Tuple {
	ts := b.Tuples()
	out := make([]Tuple, len(ts))
	copy(out, ts)
	sort.Slice(out, func(i, j int) bool { return CompareTuples(out[i], out[j]) < 0 })
	return out
}
