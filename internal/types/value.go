// Package types defines the data model shared by every layer of the system:
// scalar values, tuples, bags, schemas, ordering, and the binary and text
// codecs used to persist datasets in the distributed file system and to move
// records through the MapReduce shuffle.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the runtime type of a Value. The vocabulary follows the Pig
// data model: scalars, tuples, and bags (unordered collections of tuples).
type Kind uint8

const (
	// KindNull is the absence of a value.
	KindNull Kind = iota
	// KindBool is a boolean scalar.
	KindBool
	// KindInt is a 64-bit signed integer scalar.
	KindInt
	// KindFloat is a 64-bit floating point scalar.
	KindFloat
	// KindString is a UTF-8 string scalar.
	KindString
	// KindTuple is an ordered sequence of values.
	KindTuple
	// KindBag is a collection of tuples (the output of Group/CoGroup).
	KindBag
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTuple:
		return "tuple"
	case KindBag:
		return "bag"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed datum. The zero Value is null. Values are
// represented as a tagged struct rather than an interface so that hot loops
// (comparison, hashing, encoding) avoid per-datum allocations.
//
// The struct is one tag, one 8-byte word and one pointer — 24 bytes on
// 64-bit, so a decoded 9-column record's spine is 216 bytes:
//
//	kind    w                      p
//	bool    0 or 1                 nil
//	int     the int64's bits       nil
//	float   math.Float64bits       nil
//	string  length                 unsafe.StringData
//	tuple   length                 unsafe.SliceData (nil for a nil tuple)
//	bag     0                      the *Bag
//
// The accessors rebuild strings and tuples from p and w with unsafe.String
// and unsafe.Slice, as log/slog.Value does; p keeps the payload alive for
// the collector. Aliasing the caller's bytes is safe because no Value ever
// writes through p, and a rebuilt Tuple has cap == len, so appending to it
// copies instead of writing past the end into a neighbour's elements.
//
// The zero-size _ [0]func() keeps Value non-comparable: without it == and
// map keys would compile and compare payload pointers, not contents. It
// comes first so that it adds no padding.
type Value struct {
	_    [0]func()
	kind Kind
	w    uint64
	p    unsafe.Pointer
}

// Tuple is an ordered sequence of values.
type Tuple []Value

// Null returns the null value.
func Null() Value { return Value{} }

// NewBool wraps a bool.
func NewBool(v bool) Value {
	var w uint64
	if v {
		w = 1
	}
	return Value{kind: KindBool, w: w}
}

// NewInt wraps an int64.
func NewInt(v int64) Value { return Value{kind: KindInt, w: uint64(v)} }

// NewFloat wraps a float64.
func NewFloat(v float64) Value { return Value{kind: KindFloat, w: math.Float64bits(v)} }

// NewString wraps a string.
func NewString(v string) Value {
	return Value{kind: KindString, w: uint64(len(v)), p: unsafe.Pointer(unsafe.StringData(v))}
}

// NewTuple wraps a tuple. A nil tuple stays nil and an empty one stays
// non-nil: unsafe.SliceData keeps that distinction in p.
func NewTuple(t Tuple) Value {
	return Value{kind: KindTuple, w: uint64(len(t)), p: unsafe.Pointer(unsafe.SliceData(t))}
}

// NewBag wraps a bag.
func NewBag(b *Bag) Value { return Value{kind: KindBag, p: unsafe.Pointer(b)} }

// The payload views behind the accessors, for callers that have checked
// the kind.
func (v Value) boolean() bool  { return v.w != 0 }
func (v Value) integer() int64 { return int64(v.w) }
func (v Value) float() float64 { return math.Float64frombits(v.w) }
func (v Value) str() string    { return unsafe.String((*byte)(v.p), int(v.w)) }
func (v Value) tuple() Tuple   { return unsafe.Slice((*Value)(v.p), int(v.w)) }
func (v Value) bag() *Bag      { return (*Bag)(v.p) }

// Kind reports the runtime kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It panics if the kind is not KindBool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.boolean()
}

// Int returns the integer payload. It panics if the kind is not KindInt.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.integer()
}

// Float returns the float payload. It panics if the kind is not KindFloat.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
	return v.float()
}

// Str returns the string payload. It panics if the kind is not KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.str()
}

// Tuple returns the tuple payload, with cap == len. It panics if the kind
// is not KindTuple.
func (v Value) Tuple() Tuple {
	if v.kind != KindTuple {
		panic(fmt.Sprintf("types: Tuple() on %s value", v.kind))
	}
	return v.tuple()
}

// Bag returns the bag payload. It panics if the kind is not KindBag.
func (v Value) Bag() *Bag {
	if v.kind != KindBag {
		panic(fmt.Sprintf("types: Bag() on %s value", v.kind))
	}
	return v.bag()
}

// AsFloat converts numeric values to float64 for arithmetic. ok is false for
// non-numeric values.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(v.integer()), true
	case KindFloat:
		return v.float(), true
	default:
		return 0, false
	}
}

// Truthy reports whether the value counts as true in a filter predicate.
// Null is false; only boolean true is true.
func (v Value) Truthy() bool { return v.kind == KindBool && v.boolean() }

// String renders the value in the text (tab-free) form used by the text
// codec and by error messages.
func (v Value) String() string {
	var sb strings.Builder
	v.appendText(&sb)
	return sb.String()
}

func (v Value) appendText(sb *strings.Builder) {
	switch v.kind {
	case KindNull:
		sb.WriteString("")
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.boolean()))
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.integer(), 10))
	case KindFloat:
		sb.WriteString(strconv.FormatFloat(v.float(), 'g', -1, 64))
	case KindString:
		sb.WriteString(v.str())
	case KindTuple:
		sb.WriteByte('(')
		for i, e := range v.tuple() {
			if i > 0 {
				sb.WriteByte(',')
			}
			e.appendText(sb)
		}
		sb.WriteByte(')')
	case KindBag:
		sb.WriteByte('{')
		for i, t := range v.bag().Tuples() {
			if i > 0 {
				sb.WriteByte(',')
			}
			NewTuple(t).appendText(sb)
		}
		sb.WriteByte('}')
	}
}

// Compare defines a total order over values. Nulls sort first, then values
// order by kind, then by payload. Int and Float compare numerically with each
// other. Bags compare as sorted multisets.
func Compare(a, b Value) int {
	an, bn := a.numericKind(), b.numericKind()
	if an && bn {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		switch {
		case a.boolean() == b.boolean():
			return 0
		case !a.boolean():
			return -1
		default:
			return 1
		}
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindTuple:
		return CompareTuples(a.tuple(), b.tuple())
	case KindBag:
		return compareBags(a.bag(), b.bag())
	default:
		return 0
	}
}

func (v Value) numericKind() bool { return v.kind == KindInt || v.kind == KindFloat }

// CompareColumn is Compare with the dispatch flattened for the scalar kinds
// the shuffle hot path actually sees. The engine's compiled per-job
// comparators call it per key column instead of threading every field
// through the generic closure chain; the order is identical to Compare's —
// in particular int/int still compares through float64 (as Compare does via
// AsFloat), so the two can never disagree, even past 2^53 where that
// conversion collapses distinct integers. Mixed and nested kinds fall back
// to Compare.
func CompareColumn(a, b Value) int {
	if a.kind != b.kind {
		return Compare(a, b)
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		switch {
		case a.boolean() == b.boolean():
			return 0
		case !a.boolean():
			return -1
		default:
			return 1
		}
	case KindInt:
		af, bf := float64(a.integer()), float64(b.integer())
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	case KindFloat:
		af, bf := a.float(), b.float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(a.str(), b.str())
	default:
		return Compare(a, b)
	}
}

// CompareTuples orders tuples lexicographically field by field, shorter
// tuples first on ties.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// Equal reports deep equality under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// EqualTuples reports deep equality of tuples.
func EqualTuples(a, b Tuple) bool { return CompareTuples(a, b) == 0 }

// Clone returns a deep copy of the tuple. Scalar payloads are immutable so
// only the container spine is copied.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// CoerceInt parses ints out of int, float, and numeric string values.
func CoerceInt(v Value) (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.integer(), true
	case KindFloat:
		// int64(f) is implementation-defined outside [-2^63, 2^63).
		if f := v.float(); f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			return int64(f), true
		}
		return 0, false
	case KindString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.str()), 10, 64)
		if err != nil {
			return 0, false
		}
		return n, true
	default:
		return 0, false
	}
}

// CoerceFloat parses floats out of int, float, and numeric string values.
func CoerceFloat(v Value) (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.integer()), true
	case KindFloat:
		return v.float(), true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.str()), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}
