package server

import (
	"context"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	restore "repro"
	"repro/internal/obs"
)

// TestTraceCoversWallClock pins the structure that makes a ?trace=1 trace
// account for a query's wall clock: a flight leader's stage spans are all
// present, in lifecycle order, and none overlaps the next, so a future await
// on the query path (a second queue, an extra channel handoff) must sit
// inside a stage or add its own; and the execute span contains the job the
// engine ran. How much of the wall clock the spans cover is a timing, and is
// measured where timings are: the traced benchmark's
// bench.budget_coverage_ratio.
func TestTraceCoversWallClock(t *testing.T) {
	// The hook marks the job's run on the engine: "map-done" is followed by
	// a 5ms pause, then "job-done".
	var mu sync.Mutex
	phases := map[string]time.Time{}
	sys := restore.New()
	sys.Engine().PhaseHook = func(_, phase string) {
		mu.Lock()
		phases[phase] = time.Now()
		mu.Unlock()
		if phase == "map-done" {
			time.Sleep(5 * time.Millisecond)
		}
	}
	srv, err := New(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		if err := srv.Close(context.Background()); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	c := NewClient(hs.URL)
	uploadPages(t, c)

	resp, err := c.SubmitTraced(projectQuery, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := resp.Trace
	if tr == nil {
		t.Fatal("?trace=1 response has no trace")
	}
	if tr.TotalNanos <= 0 {
		t.Fatalf("trace total = %d", tr.TotalNanos)
	}

	// A leader's trace walks the full pipeline, one span per stage, each
	// ending before the next begins and all inside the trace.
	spans := append([]obs.Span(nil), tr.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNanos < spans[j].StartNanos })
	var stages []string
	for i, sp := range spans {
		stages = append(stages, sp.Stage)
		if sp.DurNanos < 0 || sp.StartNanos < 0 || sp.StartNanos+sp.DurNanos > tr.TotalNanos {
			t.Errorf("span %+v lies outside the trace's %dns", sp, tr.TotalNanos)
		}
		if i > 0 {
			if prev := spans[i-1]; prev.StartNanos+prev.DurNanos > sp.StartNanos {
				t.Errorf("span %+v overlaps the next, %+v", prev, sp)
			}
		}
	}
	want := []string{"parse", "hot", "queue", "lease", "evict", "match", "plan", "execute", "store", "rows"}
	if !slices.Equal(stages, want) {
		t.Errorf("stages %v, want %v:\n%s", stages, want, tr)
	}

	// The execute span contains the job: it is at least as long as the
	// job's marked run, which both hooks saw.
	mu.Lock()
	mapDone, jobDone := phases["map-done"], phases["job-done"]
	mu.Unlock()
	if mapDone.IsZero() || jobDone.IsZero() {
		t.Fatalf("engine phases seen: %v", phases)
	}
	for _, sp := range spans {
		if sp.Stage == "execute" && sp.DurNanos < jobDone.Sub(mapDone).Nanoseconds() {
			t.Errorf("execute span %v is shorter than the job's %v run inside it",
				time.Duration(sp.DurNanos), jobDone.Sub(mapDone))
		}
	}

	// Without ?trace=1 the response carries no trace (the wire shape of
	// /v1/query is unchanged for existing clients).
	plain, err := c.Submit(projectQuery, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced submission returned a trace")
	}
}

// TestSlowRingEndToEnd drives distinct queries through the daemon and
// checks /v1/debug/slow retains them slowest-first with their traces.
func TestSlowRingEndToEnd(t *testing.T) {
	_, c := newTestServer(t)
	uploadPages(t, c)

	queries := []string{
		projectQuery,
		`A = load 'data/pages' as (user, views:int, revenue:double);
B = filter A by views > 2;
store B into 'out/busy';`,
		`A = load 'data/pages' as (user, views:int, revenue:double);
C = group A by user;
D = foreach C generate group, COUNT(A);
store D into 'out/counts';`,
	}
	for _, q := range queries {
		if _, err := c.Submit(q, false); err != nil {
			t.Fatalf("submit %q: %v", q[:20], err)
		}
	}
	// A parse failure is retained too (its trace has the parse span), so
	// the slow view answers "what was that 400" as well.
	if _, err := c.Submit("definitely not pig latin", false); err == nil {
		t.Fatal("expected parse error")
	}

	slow, err := c.Slow()
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) != len(queries)+1 {
		t.Fatalf("slow ring holds %d entries, want %d", len(slow), len(queries)+1)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Trace.TotalNanos > slow[i-1].Trace.TotalNanos {
			t.Errorf("slow entries not sorted slowest-first at %d", i)
		}
	}
	var sawError bool
	for _, sq := range slow {
		if sq.Trace == nil {
			t.Errorf("entry %q has no trace", sq.Script)
		}
		if sq.Error != "" {
			sawError = true
		}
	}
	if !sawError {
		t.Error("failed submission missing from the slow ring")
	}
}

// TestMetricsFailureSplitAndQPS1m checks the /v1/metrics extensions: the
// failure counters split by cause and sum to the total, the sliding-window
// rate moves under traffic, and the latency summary appears — all without
// disturbing the existing identity submitted = executed + deduped + failed.
func TestMetricsFailureSplitAndQPS1m(t *testing.T) {
	_, c := newTestServer(t)
	uploadPages(t, c)
	if _, err := c.Submit(projectQuery, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("syntax error here", false); err == nil {
		t.Fatal("expected parse error")
	}
	// The sliding window excludes the current (partial) second — including
	// it would bias every read low — so cross a second boundary before
	// reading the rate.
	time.Sleep(time.Second + 100*time.Millisecond)

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.QueriesFailedParse + m.QueriesFailedShed + m.QueriesFailedExec; got != m.QueriesFailed {
		t.Errorf("failure split sums to %d, total is %d", got, m.QueriesFailed)
	}
	if m.QueriesFailedParse != 1 {
		t.Errorf("queriesFailedParse = %d, want 1", m.QueriesFailedParse)
	}
	if got := m.QueriesExecuted + m.QueriesDeduped + m.QueriesFailed; got != m.QueriesSubmitted {
		t.Errorf("executed+deduped+failed = %d, submitted = %d", got, m.QueriesSubmitted)
	}
	// Both submissions landed within the last minute; the window divides by
	// elapsed-at-least-1s, so the rate must be positive and finite.
	if m.QPS1m <= 0 {
		t.Errorf("qps1m = %v, want > 0", m.QPS1m)
	}
	if m.Latency == nil || m.Latency.Count < 1 {
		t.Errorf("latency summary = %+v, want >= 1 sample", m.Latency)
	}
	if m.Latency != nil && m.Latency.P99Millis < m.Latency.P50Millis {
		t.Errorf("p99 %v < p50 %v", m.Latency.P99Millis, m.Latency.P50Millis)
	}
}

// TestDedupedTraceShape checks a flight joiner's trace: parse + flightWait
// only (it runs no pipeline stages of its own).
func TestDedupedTraceShape(t *testing.T) {
	srv, c := newTestServer(t)
	uploadPages(t, c)
	if _, err := c.Submit(projectQuery, false); err != nil {
		t.Fatal(err)
	}
	reg := srv.obsReg
	if reg.Stages[obs.StageFlightWait].Snapshot().Count != 0 {
		t.Fatal("flightWait samples before any dedup")
	}
	// Serialized identical re-submission is NOT deduped (the flight is
	// gone); this exercises the histogram stage counts instead.
	if reg.Stages[obs.StageExecute].Snapshot().Count < 1 {
		t.Error("no execute-stage samples after a query")
	}
	if reg.Stages[obs.StageParse].Snapshot().Count < 1 {
		t.Error("no parse-stage samples after a query")
	}
	if reg.Query.Snapshot().Count < 1 {
		t.Error("no end-to-end query samples")
	}
	if reg.LeaseWait.Snapshot().Count < 1 {
		t.Error("no lease-wait samples")
	}
}

// TestSlowRingScriptTruncation checks long scripts are excerpted in the
// ring instead of retained whole.
func TestSlowRingScriptTruncation(t *testing.T) {
	_, c := newTestServer(t)
	uploadPages(t, c)
	long := projectQuery + strings.Repeat("\n-- padding comment to overflow the excerpt length", 20)
	if _, err := c.Submit(long, false); err != nil {
		t.Fatal(err)
	}
	slow, err := c.Slow()
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) == 0 {
		t.Fatal("empty slow ring")
	}
	if len(slow[0].Script) > 500 {
		t.Errorf("retained script is %d bytes; want excerpt", len(slow[0].Script))
	}
}
