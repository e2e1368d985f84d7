package mapred

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/physical"
	"repro/internal/types"
)

// fuzzValue draws a random shuffle-key value hitting every comparator
// path: nulls, bools, small colliding ints, ints past 2^53 (where the
// float64 comparison collapses neighbors), floats that equal ints
// numerically, NaN-adjacent extremes, strings with shared prefixes, and
// nested tuples that force the generic fallback.
func fuzzValue(rng *rand.Rand, depth int) types.Value {
	switch rng.Intn(9) {
	case 0:
		return types.Null()
	case 1:
		return types.NewBool(rng.Intn(2) == 0)
	case 2:
		return types.NewInt(int64(rng.Intn(5)) - 2)
	case 3:
		// Past 2^53: distinct ints that collide under float64 conversion.
		return types.NewInt((int64(1) << 53) + int64(rng.Intn(3)))
	case 4:
		return types.NewInt(math.MinInt64 + int64(rng.Intn(3)))
	case 5:
		return types.NewFloat(float64(rng.Intn(5)) - 2) // numeric tie with case 2
	case 6:
		return types.NewFloat(rng.NormFloat64() * 1e10)
	case 7:
		pre := []string{"", "a", "ab", "ab\x00", "ユニ"}
		return types.NewString(pre[rng.Intn(len(pre))] + pre[rng.Intn(len(pre))])
	default:
		if depth <= 0 {
			return types.NewString("leaf")
		}
		sub := make(types.Tuple, rng.Intn(3))
		for i := range sub {
			sub[i] = fuzzValue(rng, depth-1)
		}
		return types.NewTuple(sub)
	}
}

func fuzzTuple(rng *rand.Rand, maxCols int) types.Tuple {
	t := make(types.Tuple, rng.Intn(maxCols+1))
	for i := range t {
		t[i] = fuzzValue(rng, 2)
	}
	return t
}

// referenceCompareRec is the shuffle order written the plain way, as a
// closure chain: CompareTuples (or the Order SortCols loop over
// types.Compare), then tag, then seq. The fuzz target holds the compiled
// jobComparator to it, and BenchmarkShuffleKernel sorts with it as the
// baseline.
func referenceCompareRec(b *physical.Operator, x, y *shuffleRec) int {
	cmpKey := func(a, bk types.Tuple) int { return types.CompareTuples(a, bk) }
	if b != nil && b.Kind == physical.OpOrder {
		cmpKey = func(kx, ky types.Tuple) int {
			for i, sc := range b.SortCols {
				var c int
				if i < len(kx) && i < len(ky) {
					c = types.Compare(kx[i], ky[i])
				}
				if sc.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		}
	}
	if c := cmpKey(x.key, y.key); c != 0 {
		return c
	}
	if x.tag != y.tag {
		if x.tag < y.tag {
			return -1
		}
		return 1
	}
	switch {
	case x.seq < y.seq:
		return -1
	case x.seq > y.seq:
		return 1
	default:
		return 0
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	default:
		return 0
	}
}

// FuzzShuffleComparator drives randomized record pairs through both the
// compiled jobComparator and the reference closure-chain order and demands
// sign agreement plus antisymmetry, for both the Order comparator (random
// column count and per-column directions) and the generic
// CompareTuples-based one. Any divergence would let the parallel plane's
// non-stable sorts reorder output relative to the serial oracle.
func FuzzShuffleComparator(f *testing.F) {
	f.Add(int64(1), uint64(0), false)
	f.Add(int64(2), uint64(0x5a), true)
	f.Add(int64(3), uint64(math.MaxUint64), true)
	f.Add(int64(-7), uint64(1)<<53, false)
	f.Add(int64(42), uint64(0b10110), true)
	f.Fuzz(func(t *testing.T, seed int64, shape uint64, order bool) {
		rng := rand.New(rand.NewSource(seed ^ int64(shape)))
		var blocking *physical.Operator
		maxCols := 4
		if order {
			ncols := 1 + int(shape%4)
			maxCols = ncols + 1 // sometimes shorter/longer than SortCols
			cols := make([]physical.SortCol, ncols)
			for i := range cols {
				cols[i] = physical.SortCol{Index: i, Desc: shape>>(8+i)&1 == 1}
			}
			blocking = &physical.Operator{Kind: physical.OpOrder, SortCols: cols}
		}
		cmp := compileComparator(blocking)

		recs := make([]shuffleRec, 2+rng.Intn(6))
		for i := range recs {
			recs[i] = shuffleRec{
				key: fuzzTuple(rng, maxCols),
				tag: rng.Intn(3),
				seq: int64(rng.Intn(4))<<32 | int64(rng.Intn(3)),
			}
		}
		for i := range recs {
			for j := range recs {
				got := cmp.compareRec(&recs[i], &recs[j])
				want := referenceCompareRec(blocking, &recs[i], &recs[j])
				if sign(got) != sign(want) {
					t.Fatalf("compiled=%d reference=%d for recs[%d]=%+v vs recs[%d]=%+v (order=%v)",
						got, want, i, recs[i], j, recs[j], order)
				}
				if back := cmp.compareRec(&recs[j], &recs[i]); sign(back) != -sign(got) {
					t.Fatalf("not antisymmetric: cmp(i,j)=%d cmp(j,i)=%d", got, back)
				}
			}
		}

		// Sorting the batch with the compiled comparator must yield a
		// sequence the reference order also considers sorted.
		sortRun(cmp, recs)
		if !sort.SliceIsSorted(recs, func(i, j int) bool {
			return referenceCompareRec(blocking, &recs[i], &recs[j]) < 0
		}) {
			t.Fatalf("compiled sort violates reference order: %+v", recs)
		}
	})
}
