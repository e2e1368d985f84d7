package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	restore "repro"
)

// newHotServer builds a server over a System configured the way the hot
// path shines: final outputs registered (the paper's keep-results mode), so
// an exact repeat query whole-collapses onto the stored result.
func newHotServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	sys := restore.New(restore.WithRegisterFinalOutputs(true))
	srv, err := New(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Close(context.Background()); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, NewClient(hs.URL)
}

const hotQuery = `A = load 'data/pages' as (user, views:int, revenue:double);
B = filter A by views > 1;
store B into 'out/hot';`

// hotQueryVariant is hotQuery with different aliases and whitespace — the
// same canonical plan, a different script text.
const hotQueryVariant = `  alpha = load 'data/pages' as (u, vw:int, rev:double);
beta = filter alpha by vw > 1;   store beta into 'out/hot';`

// TestHotPathServesRepeatQuery pins the tentpole end to end: the first
// submission executes and registers its result; the repeat submission is
// served by the admission-time fast path (no scheduler, no lease, no
// engine run) with identical rows, and every counter layer agrees —
// queriesHot, reuse.hot, and the submitted = executed + deduped + failed
// identity.
func TestHotPathServesRepeatQuery(t *testing.T) {
	_, c := newHotServer(t)
	uploadPages(t, c)

	r1, err := c.Submit(hotQuery, true)
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	if len(r1.Rows["out/hot"]) == 0 {
		t.Fatal("cold query returned no rows")
	}

	r2, err := c.Submit(hotQuery, true)
	if err != nil {
		t.Fatalf("repeat submit: %v", err)
	}
	if r2.Deduped {
		t.Error("sequential repeat reported deduped")
	}
	if got, want := fmt.Sprint(r2.Rows["out/hot"]), fmt.Sprint(r1.Rows["out/hot"]); got != want {
		t.Errorf("hot-served rows differ from executed rows:\nhot:  %s\ncold: %s", got, want)
	}
	if len(r2.Result.Rewrites) == 0 {
		t.Error("hot serve reported no rewrites")
	}

	// A semantically identical script with different text must hot-serve
	// too: the plan cache misses on text but the flight key (and therefore
	// the whole-query match) is canonical.
	r3, err := c.Submit(hotQueryVariant, true)
	if err != nil {
		t.Fatalf("variant submit: %v", err)
	}
	if got, want := fmt.Sprint(r3.Rows["out/hot"]), fmt.Sprint(r1.Rows["out/hot"]); got != want {
		t.Errorf("variant hot rows differ: %s vs %s", got, want)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesHot != 2 {
		t.Errorf("queriesHot = %d, want 2 (two repeat serves)", m.QueriesHot)
	}
	if m.QueriesSubmitted != 3 || m.QueriesExecuted != 3 || m.QueriesDeduped != 0 || m.QueriesFailed != 0 {
		t.Errorf("submitted=%d executed=%d deduped=%d failed=%d, want 3/3/0/0",
			m.QueriesSubmitted, m.QueriesExecuted, m.QueriesDeduped, m.QueriesFailed)
	}
	if m.QueriesSubmitted != m.QueriesExecuted+m.QueriesDeduped+m.QueriesFailed {
		t.Error("submitted = executed + deduped + failed identity broken")
	}
	hot := m.Reuse.Hot
	if hot.ResultsServed != 2 {
		t.Errorf("reuse.hot.resultsServed = %d, want 2", hot.ResultsServed)
	}
	// The cold submission probed and fell back; the serves must not count
	// as fallbacks.
	if hot.Fallbacks != 1 {
		t.Errorf("reuse.hot.fallbacks = %d, want 1 (the cold probe)", hot.Fallbacks)
	}
	// Exact repeat hit the plan cache; the text variant missed (text-keyed
	// lookup) and the cold submission populated it.
	if hot.PlanCacheHits != 1 || hot.PlanCacheMisses != 2 {
		t.Errorf("plan cache hits=%d misses=%d, want 1/2", hot.PlanCacheHits, hot.PlanCacheMisses)
	}
}

// TestHotPathTraceAndStages: a hot-served query's trace must cover the
// request with parse + hot (+ rows) spans — no queue, lease, or execute.
func TestHotPathTraceAndStages(t *testing.T) {
	_, c := newHotServer(t)
	uploadPages(t, c)
	if _, err := c.Submit(hotQuery, true); err != nil {
		t.Fatal(err)
	}
	resp, err := c.SubmitTraced(hotQuery, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("no trace returned")
	}
	stages := make(map[string]bool)
	for _, sp := range resp.Trace.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"parse", "hot", "rows"} {
		if !stages[want] {
			t.Errorf("hot-served trace missing %q span (got %v)", want, resp.Trace.Spans)
		}
	}
	for _, absent := range []string{"queue", "lease", "execute", "store"} {
		if stages[absent] {
			t.Errorf("hot-served trace contains %q span — fast path took the slow road (got %v)", absent, resp.Trace.Spans)
		}
	}
}

// TestPreparedPlanCacheEquivalence is the cached-vs-recompiled oracle: two
// identically seeded systems run the same script sequence, one through
// fresh Prepare each time, the other through PrepareCached (asserting the
// second preparation of each script is a cache hit and executing the
// cached clone). Flight keys and every output's rows must agree at every
// step — including later steps where both repositories rewrite against
// entries registered by earlier ones.
func TestPreparedPlanCacheEquivalence(t *testing.T) {
	seed := func() *restore.System {
		sys := restore.New()
		lines := []string{
			"alice\t3\t1.5", "bob\t7\t2.5", "alice\t2\t4.0",
			"carol\t1\t0.5", "bob\t4\t3.5", "dave\t9\t0.25",
		}
		if err := sys.LoadTSV("data/pages", pagesSchema, lines, 2); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sysFresh, sysCached := seed(), seed()

	scripts := []string{
		`A = load 'data/pages' as (user, views:int, revenue:double);
B = foreach A generate user, revenue;
store B into 'out/eq1';`,
		`A = load 'data/pages' as (user, views:int, revenue:double);
B = filter A by views > 2;
store B into 'out/eq2';`,
		`A = load 'data/pages' as (user, views:int, revenue:double);
B = filter A by views > 2;
C = group B by user;
D = foreach C generate group, SUM(B.revenue);
store D into 'out/eq3';`,
		`A = load 'data/pages' as (user, views:int, revenue:double);
B = group A by user;
C = foreach B generate group, COUNT(A);
D = order C by $1;
store D into 'out/eq4';`,
		// Exact repeat of an earlier script: maximal reuse on both sides.
		`A = load 'data/pages' as (user, views:int, revenue:double);
B = filter A by views > 2;
store B into 'out/eq2';`,
	}

	for i, src := range scripts {
		pF, err := sysFresh.Prepare(src)
		if err != nil {
			t.Fatalf("script %d: fresh prepare: %v", i, err)
		}
		pMiss, hit, err := sysCached.PrepareCached(src)
		if err != nil {
			t.Fatalf("script %d: cached prepare (miss): %v", i, err)
		}
		if i < 4 && hit {
			t.Errorf("script %d: first preparation reported a cache hit", i)
		}
		pHit, hit, err := sysCached.PrepareCached(src)
		if err != nil {
			t.Fatalf("script %d: cached prepare (hit): %v", i, err)
		}
		if !hit {
			t.Errorf("script %d: second preparation missed the plan cache", i)
		}
		if pF.FlightKey() != pMiss.FlightKey() || pMiss.FlightKey() != pHit.FlightKey() {
			t.Errorf("script %d: flight keys diverge: fresh=%q miss=%q hit=%q",
				i, pF.FlightKey(), pMiss.FlightKey(), pHit.FlightKey())
		}

		resF, err := sysFresh.ExecutePrepared(pF)
		if err != nil {
			t.Fatalf("script %d: fresh execute: %v", i, err)
		}
		// Execute the cache-cloned preparation, not the one that populated
		// the cache — that is the artifact under test.
		resC, err := sysCached.ExecutePrepared(pHit)
		if err != nil {
			t.Fatalf("script %d: cached-clone execute: %v", i, err)
		}
		outs := make([]string, 0, len(resF.Outputs))
		for out := range resF.Outputs {
			outs = append(outs, out)
		}
		sort.Strings(outs)
		for _, out := range outs {
			rowsF, err := sysFresh.ReadOutputTSV(resF, out)
			if err != nil {
				t.Fatalf("script %d: read fresh %s: %v", i, out, err)
			}
			rowsC, err := sysCached.ReadOutputTSV(resC, out)
			if err != nil {
				t.Fatalf("script %d: read cached %s: %v", i, out, err)
			}
			if fmt.Sprint(rowsF) != fmt.Sprint(rowsC) {
				t.Errorf("script %d output %s: cached-clone rows diverge from recompiled rows:\nfresh:  %v\ncached: %v",
					i, out, rowsF, rowsC)
			}
		}
	}
	hot := sysCached.Stats().Hot
	if hot.PlanCacheHits == 0 || hot.PlanCacheMisses == 0 {
		t.Errorf("plan cache counters not exercised: %+v", hot)
	}
}

// TestHotPathFallsBackWhenStoredFileDeleted is the deterministic
// eviction-vs-fast-path case: once the stored file behind a hot-servable
// match is deleted, the next submission must fall back to normal execution
// and still answer correctly — never serve deleted bytes, never fail.
func TestHotPathFallsBackWhenStoredFileDeleted(t *testing.T) {
	srv, c := newHotServer(t)
	uploadPages(t, c)

	r1, err := c.Submit(hotQuery, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(hotQuery, true); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesHot != 1 {
		t.Fatalf("setup: queriesHot = %d, want 1", m.QueriesHot)
	}

	// Evict the stored result out from under the fast path.
	if err := srv.sys.FS().Delete("out/hot"); err != nil {
		t.Fatalf("delete stored output: %v", err)
	}

	r3, err := c.Submit(hotQuery, true)
	if err != nil {
		t.Fatalf("post-delete submit: %v", err)
	}
	if got, want := fmt.Sprint(r3.Rows["out/hot"]), fmt.Sprint(r1.Rows["out/hot"]); got != want {
		t.Errorf("post-delete rows differ: %s vs %s", got, want)
	}
	m, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesHot != 1 {
		t.Errorf("queriesHot = %d after deletion, want still 1 (fallback, not serve)", m.QueriesHot)
	}
	if m.QueriesFailed != 0 {
		t.Errorf("queriesFailed = %d, want 0 — fallback must be invisible to the client", m.QueriesFailed)
	}

	// The fallback re-executed and re-registered; the path is hot again.
	if _, err := c.Submit(hotQuery, true); err != nil {
		t.Fatal(err)
	}
	m, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesHot != 2 {
		t.Errorf("queriesHot = %d after re-registration, want 2", m.QueriesHot)
	}
}

// TestHotPathEvictionRaceStress races repeat submissions against input
// re-uploads (each bump invalidates the registered entries, forcing the
// fast path through its pin-time freshness guard and back to execution)
// under -race. Every submission must succeed with the same rows — the fast
// path may win or lose each race, but it must never serve stale or deleted
// bytes and never surface an error.
func TestHotPathEvictionRaceStress(t *testing.T) {
	_, c := newHotServer(t)
	uploadPages(t, c)

	want, err := c.Submit(hotQuery, true)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := fmt.Sprint(want.Rows["out/hot"])
	if wantRows == "[]" {
		t.Fatal("seed query returned no rows")
	}

	const (
		uploaders = 2
		queriers  = 4
		rounds    = 15
	)
	lines := []string{"alice\t3\t1.5", "bob\t7\t2.5", "alice\t2\t4.0", "carol\t1\t0.5"}
	var wg sync.WaitGroup
	errs := make(chan error, uploaders+queriers)
	for i := 0; i < uploaders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Identical bytes, new version: entries go stale, rows don't.
				if _, err := c.Upload("data/pages", pagesSchema, 2, lines); err != nil {
					errs <- fmt.Errorf("upload round %d: %w", r, err)
					return
				}
			}
		}()
	}
	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := c.Submit(hotQuery, true)
				if err != nil {
					errs <- fmt.Errorf("querier %d round %d: %w", id, r, err)
					return
				}
				if got := fmt.Sprint(resp.Rows["out/hot"]); got != wantRows {
					errs <- fmt.Errorf("querier %d round %d: rows diverged:\ngot:  %s\nwant: %s", id, r, got, wantRows)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesFailed != 0 {
		t.Errorf("queriesFailed = %d under the race, want 0", m.QueriesFailed)
	}
	if m.QueriesSubmitted != m.QueriesExecuted+m.QueriesDeduped+m.QueriesFailed {
		t.Errorf("identity broken: submitted=%d executed=%d deduped=%d failed=%d",
			m.QueriesSubmitted, m.QueriesExecuted, m.QueriesDeduped, m.QueriesFailed)
	}
}
