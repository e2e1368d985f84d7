package mapred

import (
	"sort"
	"sync"
)

// maxPooledRun caps the capacity of run slices the pools retain. Larger
// slices (a few MB of records) are left to the GC rather than pinned in the
// pool forever by one oversized job.
const maxPooledRun = 1 << 17

// recSlicePool recycles shuffle-run buffers across map tasks, reduce
// merges, and jobs. Slices are cleared before being pooled so pooled spines
// never pin key/value tuples of finished jobs.
var recSlicePool = sync.Pool{
	New: func() any {
		s := make([]shuffleRec, 0, 256)
		return &s
	},
}

// getRecSlice returns an empty run buffer with at least capHint capacity
// when the pooled one is smaller.
func getRecSlice(capHint int) []shuffleRec {
	sp := recSlicePool.Get().(*[]shuffleRec)
	s := (*sp)[:0]
	if cap(s) < capHint && capHint <= maxPooledRun {
		s = make([]shuffleRec, 0, capHint)
	}
	return s
}

// putRecSlice clears and pools a run buffer for reuse.
func putRecSlice(s []shuffleRec) {
	if cap(s) == 0 || cap(s) > maxPooledRun {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	recSlicePool.Put(&s)
}

// scratchPool recycles the per-task encode scratch buffers (store framing).
// A scratch buffer is copied into the task's output, never committed.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getScratch returns an empty encode scratch buffer.
func getScratch() []byte { return (*scratchPool.Get().(*[]byte))[:0] }

// putScratch pools an encode scratch buffer for reuse.
func putScratch(b []byte) {
	if cap(b) == 0 || cap(b) > 1<<20 {
		return
	}
	b = b[:0]
	scratchPool.Put(&b)
}

// mergeRuns merges pre-sorted shuffle runs into dst in comparator order —
// the O(n log k) reduce-side merge of the Hadoop shuffle. Because the
// comparator is a strict total order (seq is globally unique), the merge of
// locally sorted runs is byte-for-byte the same sequence a global sort of
// the concatenation would produce.
func mergeRuns(cmp *jobComparator, runs [][]shuffleRec, dst []shuffleRec) []shuffleRec {
	switch len(runs) {
	case 0:
		return dst
	case 1:
		return append(dst, runs[0]...)
	case 2:
		a, b := runs[0], runs[1]
		for len(a) > 0 && len(b) > 0 {
			if cmp.compareRec(&a[0], &b[0]) <= 0 {
				dst = append(dst, a[0])
				a = a[1:]
			} else {
				dst = append(dst, b[0])
				b = b[1:]
			}
		}
		dst = append(dst, a...)
		return append(dst, b...)
	}

	// k-way: a binary min-heap of run indices ordered by each run's head.
	heads := make([]int, len(runs)) // next unconsumed index per run
	heap := make([]int, 0, len(runs))
	less := func(ri, rj int) bool {
		return cmp.compareRec(&runs[ri][heads[ri]], &runs[rj][heads[rj]]) < 0
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && less(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for ri, run := range runs {
		if len(run) > 0 {
			heap = append(heap, ri)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		ri := heap[0]
		dst = append(dst, runs[ri][heads[ri]])
		heads[ri]++
		if heads[ri] == len(runs[ri]) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return dst
}

// sortRun locally sorts one map task's run for one reduce partition.
func sortRun(cmp *jobComparator, recs []shuffleRec) {
	sort.Sort(recSorter{recs: recs, cmp: cmp})
}
