package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	restore "repro"
	"repro/internal/pigmix"
)

// tinyPigmix is a fast-but-real PigMix instance for the end-to-end test.
var tinyPigmix = pigmix.GenConfig{
	PageViewsRows: 400,
	Users:         60,
	PowerUsers:    10,
	WideRows:      80,
	Partitions:    2,
	Seed:          1,
}

// startDaemon boots a Server on a loopback listener and returns its base
// URL plus a stop function that performs the full shutdown (final
// checkpoint included).
func startDaemon(t *testing.T, cfg Config) (string, func()) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("daemon close: %v", err)
		}
		if err := <-serveErr; err != nil && err != http.ErrServerClosed {
			t.Errorf("serve: %v", err)
		}
	}
	return "http://" + ln.Addr().String(), stop
}

// TestEndToEndMixedConflictTrafficWithMidRunCheckpoint extends the daemon
// acceptance coverage to the concurrent scheduler: clients drive a mix of
// write-disjoint and write-conflicting (same store path, different
// predicates) workflows at a worker pool, a checkpoint fires mid-run, the
// daemon restarts from the state directory, and the reuse hit-rate must
// survive: repeated queries are still rewritten against the persisted
// repository.
func TestEndToEndMixedConflictTrafficWithMidRunCheckpoint(t *testing.T) {
	stateDir := t.TempDir()
	sys := restore.New()
	if err := pigmix.Generate(sys.FS(), tinyPigmix); err != nil {
		t.Fatal(err)
	}
	base, stop := startDaemon(t, Config{
		System:   sys,
		StateDir: stateDir,
		Workers:  4,
	})

	const clients = 6
	const rounds = 3
	// Precomputed on the test goroutine (pigmix.Query can error; t.Fatal is
	// not legal from workers).
	queries := make([][]string, clients)
	for cl := 0; cl < clients; cl++ {
		queries[cl] = make([]string, rounds)
		for r := 0; r < rounds; r++ {
			var src string
			var err error
			if cl%2 == 0 {
				// Disjoint lane: per-client output namespace.
				src, err = pigmix.Query("L2", fmt.Sprintf("out/mixed/cl%d/r%d", cl, r))
			} else {
				// Conflicting lane: every odd client stores to the same path
				// with a different variant, forcing write-write
				// serialization.
				name := pigmix.VariantNames()[r%len(pigmix.VariantNames())]
				src, err = pigmix.Query(name, "out/mixed/contended")
			}
			if err != nil {
				t.Fatal(err)
			}
			queries[cl][r] = src
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(base)
			for r := 0; r < rounds; r++ {
				if _, err := c.Submit(queries[cl][r], false); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", cl, r, err)
					return
				}
			}
		}()
	}
	// A checkpoint lands in the middle of the mixed traffic (the drain
	// barrier makes it a consistent pair regardless of what is in flight).
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := NewClient(base).Checkpoint(); err != nil {
			errs <- fmt.Errorf("mid-run checkpoint: %w", err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c := NewClient(base)
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesFailed != 0 {
		t.Errorf("%d queries failed in the mixed workload", m.QueriesFailed)
	}
	if m.Reuse.QueriesReused == 0 {
		t.Error("no repository reuse across the mixed workload")
	}
	stop()

	// Restart from disk with an empty System: the learned repository must
	// come back and keep producing hits.
	base2, stop2 := startDaemon(t, Config{StateDir: stateDir, Workers: 4})
	defer stop2()
	c2 := NewClient(base2)
	for r := 0; r < rounds; r++ {
		resp, err := c2.Submit(queries[0][r], false)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Result.Rewrites) == 0 {
			t.Errorf("restarted daemon applied no rewrites to repeated round %d", r)
		}
		if len(resp.Result.Evicted) != 0 {
			t.Errorf("restart evicted %v", resp.Result.Evicted)
		}
	}
	m2, err := c2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Reuse.HitRate < 1 {
		t.Errorf("post-restart hit rate = %.2f, want 1.00 (every repeat rewritten)", m2.Reuse.HitRate)
	}
}

// TestEndToEndConcurrentClientsWithRestart is the acceptance test for the
// restored daemon: 8 concurrent clients drive overlapping PigMix variant
// queries against a loopback daemon, identical in-flight queries
// deduplicate, cross-query repository reuse occurs, and the repository
// survives a daemon stop/start through the durable-state directory.
func TestEndToEndConcurrentClientsWithRestart(t *testing.T) {
	stateDir := t.TempDir()

	sys := restore.New()
	if err := pigmix.Generate(sys.FS(), tinyPigmix); err != nil {
		t.Fatal(err)
	}
	base, stop := startDaemon(t, Config{
		System:          sys,
		StateDir:        stateDir,
		CompactInterval: 5 * time.Millisecond, // exercise the periodic path too
	})

	// A background inspector hammers the read-only endpoints while queries
	// execute: repository serialization must never observe torn entries.
	inspectStop := make(chan struct{})
	inspectDone := make(chan struct{})
	go func() {
		defer close(inspectDone)
		c := NewClient(base)
		for {
			select {
			case <-inspectStop:
				return
			default:
			}
			if _, err := c.Repository(); err != nil {
				t.Errorf("repository poll: %v", err)
				return
			}
			if _, err := c.Metrics(); err != nil {
				t.Errorf("metrics poll: %v", err)
				return
			}
		}
	}()

	const clients = 8
	names := pigmix.VariantNames()
	for _, name := range names {
		src, err := pigmix.Query(name, "out/"+name)
		if err != nil {
			t.Fatal(err)
		}
		// All clients fire the identical script at once, so every round
		// gives the single-flight layer a pile of in-flight duplicates.
		start := make(chan struct{})
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := NewClient(base)
				<-start
				// Every member asks for rows, so deduped joiners exercise
				// the flight-carried rows path.
				resp, err := c.Submit(src, true)
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Rows) == 0 {
					errs <- fmt.Errorf("%s: no rows returned (deduped=%v)", name, resp.Deduped)
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	close(inspectStop)
	<-inspectDone

	c := NewClient(base)
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	submitted := int64(clients * len(names))
	if m.QueriesSubmitted != submitted {
		t.Errorf("submitted = %d, want %d", m.QueriesSubmitted, submitted)
	}
	if m.QueriesExecuted >= m.QueriesSubmitted {
		t.Errorf("no single-flight dedup: executed %d of %d submissions", m.QueriesExecuted, m.QueriesSubmitted)
	}
	if m.QueriesDeduped == 0 || m.QueriesDeduped != m.QueriesSubmitted-m.QueriesExecuted {
		t.Errorf("dedup accounting: submitted=%d executed=%d deduped=%d",
			m.QueriesSubmitted, m.QueriesExecuted, m.QueriesDeduped)
	}
	if m.QueriesFailed != 0 {
		t.Errorf("%d queries failed", m.QueriesFailed)
	}
	// Cross-query repository reuse: the variant stream shares whole jobs and
	// sub-jobs (that is the paper's §7.1 workload), so later variants must
	// have been rewritten against entries registered by earlier ones.
	if m.Reuse.QueriesReused == 0 {
		t.Error("no cross-query repository reuse over the variant stream")
	}
	// The periodic checkpointer runs on its own clock; give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for m.Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		if m, err = c.Metrics(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Checkpoints == 0 {
		t.Error("periodic checkpointing never ran")
	}

	repoBefore, err := c.Repository()
	if err != nil {
		t.Fatal(err)
	}
	if len(repoBefore.Entries) == 0 {
		t.Fatal("repository empty after the variant stream")
	}

	// Stop the daemon (writes the final checkpoint), then start a brand-new
	// one over the same state directory with an empty System: everything it
	// knows must come from disk.
	stop()

	base2, stop2 := startDaemon(t, Config{StateDir: stateDir})
	defer stop2()
	c2 := NewClient(base2)

	repoAfter, err := c2.Repository()
	if err != nil {
		t.Fatal(err)
	}
	if len(repoAfter.Entries) != len(repoBefore.Entries) {
		t.Fatalf("repository size changed across restart: %d -> %d",
			len(repoBefore.Entries), len(repoAfter.Entries))
	}
	for i := range repoAfter.Entries {
		a, b := repoBefore.Entries[i], repoAfter.Entries[i]
		if a.ID != b.ID || a.OutputPath != b.OutputPath || a.UseCount != b.UseCount {
			t.Errorf("entry %d differs across restart: %+v vs %+v", i, a, b)
		}
	}

	// The restored repository must actually answer queries: a repeat of a
	// variant query has to be rewritten against persisted entries, and the
	// rewrite must not be evicted first (the DFS snapshot preserved the
	// input versions Rule 4 checks).
	src, err := pigmix.Query("L3", "out/L3-after-restart")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c2.Submit(src, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rewrites) == 0 {
		t.Error("restarted daemon applied no rewrites to a repeated variant query")
	}
	if len(resp.Result.Evicted) != 0 {
		t.Errorf("restart invalidated entries: evicted %v", resp.Result.Evicted)
	}
}
