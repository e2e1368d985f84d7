package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 0}, // sub-µs resolution truncates
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10}, // 1024 µs -> 2^10
		{time.Second, 20},      // ~1.05s bound at 2^20 µs
		{240 * time.Hour, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	for i := 0; i < NumBuckets-1; i++ {
		b := BucketBound(i)
		if got := bucketIndex(b); got != i {
			t.Errorf("bound %v of bucket %d lands in bucket %d (bounds must be inclusive)", b, i, got)
		}
		if got := bucketIndex(b + time.Microsecond); got != i+1 {
			t.Errorf("bound+1µs of bucket %d lands in bucket %d, want %d", i, got, i+1)
		}
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	var h Histogram
	// 90 fast samples, 10 slow ones: p50 in the fast bucket, p99 in the slow.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(80 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if p50 := s.Quantile(0.5); p50 < 100*time.Microsecond || p50 > 256*time.Microsecond {
		t.Errorf("p50 = %v, want within the 100µs bucket bound", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 80*time.Millisecond || p99 > 256*time.Millisecond {
		t.Errorf("p99 = %v, want within the 80ms bucket bound", p99)
	}
	wantMean := (90*100*time.Microsecond + 10*80*time.Millisecond) / 100
	if m := s.Mean(); m != wantMean {
		t.Errorf("mean = %v, want %v", m, wantMean)
	}
	if q := (HistogramSnapshot{}).Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines (run under -race by make check) and verifies no samples are
// lost and the snapshot invariants hold.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Microsecond)
			}
		}()
	}
	// Concurrent snapshots must be safe (and internally consistent enough:
	// a sample seen in a bucket is already in the count, never the reverse).
	for i := 0; i < 100; i++ {
		s := h.Snapshot()
		var total int64
		for _, c := range s.Buckets {
			total += c
		}
		if total > s.Count {
			t.Fatalf("mid-traffic snapshot: bucket total %d > count %d", total, s.Count)
		}
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d after quiesce", total, s.Count)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Observe(time.Millisecond)
		b.Observe(time.Second)
	}
	b.Observe(3 * time.Microsecond)
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(sb)
	if merged.Count != sa.Count+sb.Count {
		t.Errorf("merged count = %d, want %d", merged.Count, sa.Count+sb.Count)
	}
	if merged.SumNanos != sa.SumNanos+sb.SumNanos {
		t.Errorf("merged sum = %d, want %d", merged.SumNanos, sa.SumNanos+sb.SumNanos)
	}
	for i := range merged.Buckets {
		if merged.Buckets[i] != sa.Buckets[i]+sb.Buckets[i] {
			t.Errorf("bucket %d = %d, want %d", i, merged.Buckets[i], sa.Buckets[i]+sb.Buckets[i])
		}
	}
	// Merge is how shard snapshots combine; quantiles must see both sides.
	if p99 := merged.Quantile(0.99); p99 < time.Second {
		t.Errorf("merged p99 = %v, want >= 1s (b's samples)", p99)
	}
}

func TestRateWindowSlidesAndExpires(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	w := NewRateWindow(base)
	// 120 events spread over seconds 1..4 (the anchor second stays empty so
	// the whole burst is in closed seconds when read at +5s).
	for s := 1; s <= 4; s++ {
		for i := 0; i < 30; i++ {
			w.Mark(base.Add(time.Duration(s) * time.Second))
		}
	}
	// Read at +5s: 120 events over 5s of uptime (window not yet full).
	if r := w.Rate(base.Add(5 * time.Second)); r < 23 || r > 25 {
		t.Errorf("rate at +5s = %.1f, want ~24", r)
	}
	// Read at +30s: same events over a longer elapsed window.
	if r := w.Rate(base.Add(30 * time.Second)); r < 3.9 || r > 4.1 {
		t.Errorf("rate at +30s = %.1f, want ~4", r)
	}
	// Past the window the events expire entirely.
	if r := w.Rate(base.Add(120 * time.Second)); r != 0 {
		t.Errorf("rate at +120s = %.1f, want 0 (all slots stale)", r)
	}
	// New traffic reclaims stale slots.
	w.Mark(base.Add(119 * time.Second))
	if r := w.Rate(base.Add(120 * time.Second)); r == 0 {
		t.Error("rate after reclaiming a stale slot = 0, want > 0")
	}
}

func TestRateWindowConcurrentMark(t *testing.T) {
	now := time.Unix(1_700_000_100, 0)
	w := NewRateWindow(now.Add(-time.Minute)) // full window elapsed
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.Mark(now)
			}
		}()
	}
	wg.Wait()
	want := float64(goroutines*perG) / rateSlots
	if r := w.Rate(now.Add(time.Second)); r != want {
		t.Errorf("rate = %.2f, want %.2f (no lost marks)", r, want)
	}
}

func TestTraceSpansAndSnapshot(t *testing.T) {
	begin := time.Now()
	tr := NewTrace(begin)
	start := time.Now()
	time.Sleep(2 * time.Millisecond)
	d := tr.ObserveSince(StageExecute, start)
	if d < 2*time.Millisecond {
		t.Errorf("span duration %v < slept 2ms", d)
	}
	tr.ObserveSince(StageRows, time.Now())
	s := tr.Snapshot()
	if len(s.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(s.Spans))
	}
	if s.Spans[0].Stage != "execute" || s.Spans[1].Stage != "rows" {
		t.Errorf("stages = %q,%q", s.Spans[0].Stage, s.Spans[1].Stage)
	}
	if s.TotalNanos < s.Spans[0].DurNanos {
		t.Errorf("total %d < first span %d", s.TotalNanos, s.Spans[0].DurNanos)
	}
	if got := s.SpanNanos(); got != s.Spans[0].DurNanos+s.Spans[1].DurNanos {
		t.Errorf("SpanNanos = %d, want sum of spans", got)
	}
	// Nil traces are silent no-ops that still report elapsed time.
	var nilTr *Trace
	if d := nilTr.ObserveSince(StageParse, time.Now().Add(-time.Second)); d < time.Second {
		t.Errorf("nil trace ObserveSince = %v, want >= 1s elapsed", d)
	}
	if nilTr.Snapshot() != nil {
		t.Error("nil trace Snapshot != nil")
	}
}

func TestSlowRingRetainsWorst(t *testing.T) {
	r := NewSlowRing(3)
	add := func(ms int64) {
		r.Add(SlowQuery{
			Script: fmt.Sprintf("q%d", ms),
			Trace:  &TraceSnapshot{TotalNanos: ms * int64(time.Millisecond)},
		})
	}
	for _, ms := range []int64{5, 50, 1, 30, 2, 40, 3} {
		add(ms)
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	wantOrder := []string{"q50", "q40", "q30"}
	for i, w := range wantOrder {
		if got[i].Script != w {
			t.Errorf("slot %d = %s, want %s (slowest-first, worst retained)", i, got[i].Script, w)
		}
	}
	// Ties with the minimum do not churn the ring.
	add(30)
	if got := r.Snapshot(); got[2].Script != "q30" {
		t.Errorf("tie displaced the retained entry: %v", got[2].Script)
	}
}

func TestSlowRingTruncatesScripts(t *testing.T) {
	r := NewSlowRing(1)
	long := make([]byte, 2*scriptExcerptLen)
	for i := range long {
		long[i] = 'a'
	}
	r.Add(SlowQuery{Script: string(long), Trace: &TraceSnapshot{TotalNanos: 1}})
	if got := r.Snapshot()[0].Script; len(got) > scriptExcerptLen+4 {
		t.Errorf("retained script length %d, want <= %d", len(got), scriptExcerptLen+4)
	}
}

func TestSlowRingConcurrentAdd(t *testing.T) {
	r := NewSlowRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(SlowQuery{Trace: &TraceSnapshot{TotalNanos: int64(g*1000 + i)}})
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	got := r.Snapshot()
	if len(got) != 8 {
		t.Fatalf("retained %d, want 8", len(got))
	}
	// The 8 slowest across all writers are 3499..3492.
	if got[0].Trace.TotalNanos != 3499 || got[7].Trace.TotalNanos != 3492 {
		t.Errorf("retained range [%d..%d], want [3499..3492]", got[0].Trace.TotalNanos, got[7].Trace.TotalNanos)
	}
}

func TestRegistryDisabledAndNil(t *testing.T) {
	for _, r := range []*Registry{nil, Disabled} {
		r.ObserveStage(StageExecute, time.Second)
		r.ObserveQuery(time.Second)
		r.ObserveLeaseWait(time.Second)
		r.ObserveWALAppend(time.Second)
		r.ObserveWALFsync(time.Second)
		r.ObserveGCSweep(time.Second)
		r.LeaseQueued(1)
		r.LeaseAdmitted(1)
		r.UniversalQueued(1)
		if !r.Off() {
			t.Error("Off() = false for disabled/nil registry")
		}
	}
	if Disabled.Query.Snapshot().Count != 0 {
		t.Error("Disabled registry recorded a sample")
	}
	r := NewRegistry()
	r.ObserveStage(StageMatch, time.Millisecond)
	r.UniversalQueued(1)
	r.UniversalQueued(-1)
	if r.Stages[StageMatch].Snapshot().Count != 1 {
		t.Error("active registry lost a stage sample")
	}
	if r.UniversalAcquires.Load() != 1 || r.UniversalWaiting.Load() != 0 {
		t.Error("universal gauge/counter wrong after queue+dequeue")
	}
}
