package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	restore "repro"
)

// TestFlightKeySemanticEquivalence pins the canonical-fingerprint key: only
// semantic identity (same plans, same outputs) decides flight sharing, not
// script text.
func TestFlightKeySemanticEquivalence(t *testing.T) {
	sys := restore.New()
	key := func(src string) string {
		t.Helper()
		p, err := sys.Prepare(src)
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
		return p.FlightKey()
	}
	a := key("A = load 'x' as (k:int, v:int);\nB = filter A by v > 3;\nstore B into 'out/y';\n")
	// Same computation: different whitespace, line endings, and aliases.
	b := key("  alpha = load 'x' as (kk:int, vv:int);  \r\n\r\n  beta = filter alpha by vv > 3;   store beta into 'out/y';")
	if a != b {
		t.Fatalf("semantically identical scripts got different keys:\n%q\n%q", a, b)
	}
	// Different store path: must not share (the results land elsewhere).
	if c := key("A = load 'x' as (k:int, v:int);\nB = filter A by v > 3;\nstore B into 'out/z';"); a == c {
		t.Fatal("queries writing different outputs share a key")
	}
	// Different predicate constant: different plan, different key.
	if d := key("A = load 'x' as (k:int, v:int);\nB = filter A by v > 4;\nstore B into 'out/y';"); a == d {
		t.Fatal("different computations share a key")
	}
	// Re-preparing the same script must reproduce the key even though each
	// preparation mints a fresh restore/tmp/qN namespace.
	if e := key("A = load 'x' as (k:int, v:int);\nB = filter A by v > 3;\nstore B into 'out/y';\n"); a != e {
		t.Fatalf("same script re-prepared got a different key:\n%q\n%q", a, e)
	}
	// A multi-job workflow (group forces a job cut with an inter-job temp)
	// must also key stably across preparations.
	multi := "A = load 'x' as (k:int, v:int);\nB = group A by k;\nC = foreach B generate group, COUNT(A);\nD = order C by $1;\nstore D into 'out/m';\n"
	if key(multi) != key(multi) {
		t.Fatal("multi-job script keys unstable across preparations")
	}
}

func TestFlightGroupDeduplicatesConcurrentCalls(t *testing.T) {
	var g flightGroup
	var runs atomic.Int64
	release := make(chan struct{})
	want := &restore.Result{Registered: 42}

	const callers = 8
	var wg sync.WaitGroup
	var arrived, sharedCount atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			out, shared := g.do("k", false, func(*flightHandle) flightOutcome {
				runs.Add(1)
				<-release // hold the flight open while the others join
				return flightOutcome{res: want}
			})
			if out.err != nil {
				t.Errorf("do: %v", out.err)
			}
			if out.res != want {
				t.Errorf("got %+v, want shared result", out.res)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let every caller reach do() before releasing the leader, so joins are
	// all but guaranteed; accounting below tolerates a straggler that missed
	// the flight and ran its own.
	for arrived.Load() < callers {
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got >= callers {
		t.Errorf("fn ran %d times for %d concurrent callers; no dedup", got, callers)
	}
	if runs.Load()+sharedCount.Load() != callers {
		t.Errorf("runs(%d) + shared(%d) != callers(%d)", runs.Load(), sharedCount.Load(), callers)
	}
	if sharedCount.Load() == 0 {
		t.Error("no caller reported shared=true")
	}

	// The key is released after the flight: a later call runs again.
	before := runs.Load()
	_, shared := g.do("k", false, func(*flightHandle) flightOutcome { runs.Add(1); return flightOutcome{res: want} })
	if shared {
		t.Error("post-flight call should not be shared")
	}
	if got := runs.Load(); got != before+1 {
		t.Errorf("fn ran %d times after post-flight call, want %d", got, before+1)
	}
}

// TestSemanticSingleFlightSharesExecution proves the acceptance shape: two
// scripts differing only in variable names and whitespace share one flight —
// one execution, two results. The engine's phase hook holds the first
// submission's job at its first phase boundary; the second is sent only once
// the hook has fired, and the job is let go only once the second is seen on
// the open flight, so it joins deterministically.
func TestSemanticSingleFlightSharesExecution(t *testing.T) {
	sys := restore.New()
	executing, release := make(chan struct{}), make(chan struct{})
	var hold, letGo sync.Once
	sys.Engine().PhaseHook = func(string, string) {
		hold.Do(func() { close(executing); <-release })
	}
	unblock := func() { letGo.Do(func() { close(release) }) }
	lines := make([]string, 200)
	for i := range lines {
		lines[i] = fmt.Sprintf("u%d\t%d", i%20, i%50)
	}
	if err := sys.LoadTSV("in/sf", "user, n:int", lines, 2); err != nil {
		t.Fatal(err)
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
	defer unblock() // a failing assertion must not leave A parked in the hook
	c := NewClient(hs.URL)

	scriptA := "A = load 'in/sf' as (user, n:int);\nB = filter A by n > 5;\nC = group B by user;\nD = foreach C generate group, COUNT(B);\nstore D into 'out/sf';\n"
	// Same computation, same output — different aliases, spacing, and line
	// structure.
	scriptB := "  alpha = load 'in/sf' as (u, cnt:int);  \r\n beta = filter alpha by cnt > 5;\r\n\r\n  gamma = group beta by u;   delta = foreach gamma generate group, COUNT(beta);  store delta into 'out/sf';"

	type outcome struct {
		resp *QueryResponse
		err  error
	}
	chA, chB := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		resp, err := c.Submit(scriptA, false)
		chA <- outcome{resp, err}
	}()
	// A's job is parked mid-execution (its flight stays open throughout):
	// submit the semantically identical B. Only B asks for rows, so the
	// flight's wantRows flipping is B joining it.
	select {
	case <-executing:
	case <-time.After(10 * time.Second):
		t.Fatal("first query never started executing")
	}
	go func() {
		resp, err := c.Submit(scriptB, true)
		chB <- outcome{resp, err}
	}()
	waitFor(t, "second submission to join the open flight", func() bool {
		srv.flights.mu.Lock()
		defer srv.flights.mu.Unlock()
		for _, fc := range srv.flights.flights { // A's is the only one open
			if fc.wantRows.Load() {
				return true
			}
		}
		return false
	})
	unblock()
	outA, outB := <-chA, <-chB
	if outA.err != nil || outB.err != nil {
		t.Fatalf("submit errors: A=%v B=%v", outA.err, outB.err)
	}
	respB := outB.resp
	if outA.resp.Deduped {
		t.Error("flight leader reported deduped")
	}
	if !respB.Deduped {
		t.Error("semantically identical concurrent script did not share the flight")
	}
	if la, lb := outA.resp.Rows["out/sf"], respB.Rows["out/sf"]; len(la) == 0 || fmt.Sprint(la) != fmt.Sprint(lb) {
		t.Errorf("shared flight returned different rows:\nA: %v\nB: %v", la, lb)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesExecuted != 1 || m.QueriesDeduped != 1 {
		t.Errorf("executed=%d deduped=%d, want 1 execution shared by 2 submissions",
			m.QueriesExecuted, m.QueriesDeduped)
	}
}

// TestFlightSealReleasesKeyMidFlight pins the seal semantics the in-slot
// rows read depends on: sealing removes the key while the leader is still
// running, so a later identical submission starts a fresh flight instead of
// joining one whose rows decision is already final.
func TestFlightSealReleasesKeyMidFlight(t *testing.T) {
	var g flightGroup
	r1, r2 := &restore.Result{Registered: 1}, &restore.Result{Registered: 2}
	sealed := make(chan struct{})
	finish := make(chan struct{})
	type res struct {
		out    flightOutcome
		shared bool
	}
	ch1 := make(chan res, 1)
	go func() {
		out, shared := g.do("k", false, func(h *flightHandle) flightOutcome {
			if h.wantRows() {
				t.Error("leader sees wantRows without any rows-interested member")
			}
			if h.seal() {
				t.Error("seal reported rows interest on a rows-free flight")
			}
			if h.seal() {
				t.Error("second seal changed the answer (must be idempotent)")
			}
			close(sealed)
			<-finish // hold the sealed flight open
			return flightOutcome{res: r1}
		})
		ch1 <- res{out, shared}
	}()
	<-sealed

	// The first flight is sealed but still running: the same key must start
	// a fresh flight, and its creation-time rows interest must be final at
	// its own seal.
	out2, shared2 := g.do("k", true, func(h *flightHandle) flightOutcome {
		if !h.seal() {
			t.Error("fresh flight lost its creator's rows interest")
		}
		return flightOutcome{res: r2}
	})
	if shared2 {
		t.Error("post-seal submission joined a sealed flight")
	}
	if out2.res != r2 {
		t.Errorf("post-seal submission got %+v, want its own result", out2.res)
	}

	close(finish)
	got1 := <-ch1
	if got1.shared || got1.out.res != r1 {
		t.Errorf("sealed leader outcome = %+v shared=%v, want its own result", got1.out.res, got1.shared)
	}
}

// TestFlightGroupJoinerStress hammers do() with joiners arriving throughout
// leader completion — including the window between fn returning and the
// done channel closing. Every caller must get a non-zero outcome (the
// finished flight's or a fresh flight's), never a hang and never a
// zero-value result. Run under -race this also proves the outcome handoff
// is properly ordered.
func TestFlightGroupJoinerStress(t *testing.T) {
	var g flightGroup
	const (
		keys    = 3
		workers = 8
		rounds  = 200
	)
	want := make([]*restore.Result, keys)
	for k := range want {
		want[k] = &restore.Result{Registered: k}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % keys
				key := fmt.Sprintf("k%d", k)
				out, _ := g.do(key, r%2 == 0, func(h *flightHandle) flightOutcome {
					// Half the leaders seal mid-flight (the hot path and the
					// in-slot read do), half rely on do's backstop.
					if r%2 == 0 {
						h.seal()
					}
					return flightOutcome{res: want[k]}
				})
				if out.err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, out.err)
					return
				}
				if out.res != want[k] {
					errs <- fmt.Errorf("worker %d round %d: got %+v, want key %d's result (zero-value outcome?)", w, r, out.res, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
