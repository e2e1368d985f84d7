package mapred

import (
	"repro/internal/physical"
	"repro/internal/types"
)

// jobComparator is the shuffle ordering of one job — key (respecting
// Order's per-column sort directions), then input tag, then sequence
// number — compiled once per job instead of being rebuilt as a closure
// chain per comparison. Key columns go through types.CompareColumn, whose
// order is identical to types.Compare's (FuzzShuffleComparator holds it to
// that reference); the seq component is globally unique (taskIdx<<32|n),
// which makes the whole order strict and lets both the run sort and the
// k-way merge be non-stable without changing output.
type jobComparator struct {
	// desc holds Order's per-column direction flags; nil for every other
	// blocking kind, where keys compare with full CompareTuples semantics
	// (lexicographic, shorter-first tiebreak).
	desc []bool
}

// compileComparator derives the job's comparator from its blocking operator
// (nil for map-only jobs, which never sort a shuffle).
func compileComparator(b *physical.Operator) *jobComparator {
	if b == nil || b.Kind != physical.OpOrder {
		return &jobComparator{}
	}
	desc := make([]bool, len(b.SortCols))
	for i, sc := range b.SortCols {
		desc[i] = sc.Desc
	}
	return &jobComparator{desc: desc}
}

// compareKey orders two shuffle keys.
func (c *jobComparator) compareKey(x, y types.Tuple) int {
	if c.desc != nil {
		// Order keys always have len(SortCols) columns (blockingKey pads
		// with nulls); the i<len guard only keeps a malformed key safe.
		for i, d := range c.desc {
			var v int
			if i < len(x) && i < len(y) {
				v = types.CompareColumn(x[i], y[i])
			}
			if d {
				v = -v
			}
			if v != 0 {
				return v
			}
		}
		return 0
	}
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		if v := types.CompareColumn(x[i], y[i]); v != 0 {
			return v
		}
	}
	switch {
	case len(x) < len(y):
		return -1
	case len(x) > len(y):
		return 1
	default:
		return 0
	}
}

// compareRec orders two shuffle records by (key, tag, seq).
func (c *jobComparator) compareRec(x, y *shuffleRec) int {
	if v := c.compareKey(x.key, y.key); v != 0 {
		return v
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

// recSorter sorts a shuffle run in comparator order without the per-swap
// reflection of sort.SliceStable (and without stability, which the strict
// order makes unnecessary).
type recSorter struct {
	recs []shuffleRec
	cmp  *jobComparator
}

func (s recSorter) Len() int { return len(s.recs) }
func (s recSorter) Less(i, j int) bool {
	return s.cmp.compareRec(&s.recs[i], &s.recs[j]) < 0
}
func (s recSorter) Swap(i, j int) { s.recs[i], s.recs[j] = s.recs[j], s.recs[i] }
