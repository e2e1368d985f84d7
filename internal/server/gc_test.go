package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	restore "repro"
)

// End-to-end daemon coverage for the §5 growth-management subsystem: keep
// policies driven over HTTP, the background GC loop, and retention's
// crash-durability through the WAL.

// newPolicyServer boots an in-memory daemon over a System with the given
// policy and GC cadence.
func newPolicyServer(t *testing.T, policy restore.Policy, gcEvery time.Duration) (*Server, *Client) {
	t.Helper()
	sys := restore.New(restore.WithPolicy(policy))
	srv, err := New(Config{System: sys, GCInterval: gcEvery})
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

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const gcQueryTmpl = `A = load 'data/pages' as (user, views:int, revenue:double);
B = filter A by views > %d;
C = group B by user;
D = foreach C generate group, COUNT(B), SUM(B.revenue);
store D into '%s';`

// TestNonKeepAllPolicyOverHTTP drives Rules 1 and 2 through the daemon: a
// rejecting policy must leave no repository entries, no repository-owned
// temp files on the DFS, and a metrics trail showing the rejections.
func TestNonKeepAllPolicyOverHTTP(t *testing.T) {
	// Every materialization point of these queries copies or widens its
	// input (a keep-everything filter, then a column-duplicating project),
	// so Rule 1 deterministically rejects every candidate.
	_, c := newPolicyServer(t, restore.Policy{
		RequireSizeReduction: true,
		RequireTimeSaving:    true,
		CheckInputVersions:   true,
	}, 0)
	uploadPages(t, c)

	for i := 0; i < 3; i++ {
		q := fmt.Sprintf(`A = load 'data/pages' as (user, views:int, revenue:double);
B = filter A by views > -%d;
C = foreach B generate user, views, revenue, user, views;
store C into 'out/pol%d';`, i+1, i)
		resp, err := c.Submit(q, false)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if resp.Result.Registered != 0 {
			t.Errorf("query %d registered %d entries under a rejecting policy", i, resp.Result.Registered)
		}
	}

	repo, err := c.Repository()
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Entries) != 0 {
		t.Errorf("repository holds %d entries under a rejecting policy", len(repo.Entries))
	}
	// Rejected candidates' repository-owned files must be deleted from the
	// DFS — the accumulation the §5 rules exist to prevent.
	ds, err := c.Datasets("restore/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		var paths []string
		for _, d := range ds {
			paths = append(paths, d.Path)
		}
		t.Errorf("rejected candidates leaked temp files: %v", paths)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Reuse.Rejected == 0 {
		t.Error("metrics show no rejected candidates")
	}
	if m.Reuse.Registered != 0 {
		t.Errorf("metrics show %d registrations under a rejecting policy", m.Reuse.Registered)
	}
	// User outputs are untouched by the keep rules.
	if out, err := c.Datasets("out/"); err != nil || len(out) != 3 {
		t.Errorf("user outputs = %v (err %v), want 3", out, err)
	}
}

// TestGCLoopEvictsInBackground proves eviction no longer rides only on
// query traffic: after an input overwrite, the GC loop alone (no further
// queries) invalidates the stale entries.
func TestGCLoopEvictsInBackground(t *testing.T) {
	_, c := newPolicyServer(t, restore.Policy{KeepAll: true, CheckInputVersions: true}, 10*time.Millisecond)
	uploadPages(t, c)
	if _, err := c.Submit(fmt.Sprintf(gcQueryTmpl, 1, "out/bg"), false); err != nil {
		t.Fatal(err)
	}
	repo, err := c.Repository()
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Entries) == 0 {
		t.Fatal("premise: nothing stored")
	}

	// Overwrite the base input; no query follows, so only the GC loop can
	// notice.
	uploadPages(t, c)
	waitFor(t, "background eviction", func() bool {
		m, err := c.Metrics()
		if err != nil {
			return false
		}
		return m.RepositoryEntries == 0 && m.GCRuns > 0 && m.GCEvicted > 0
	})
}

// TestGCLoopRetiresOutputsAndSurvivesRestart drives retention end to end
// through the daemon — old out/ files retired by the background loop while
// fresh ones survive — and then restarts from the WAL to prove the
// retention table (NoteOutput/ForgetOutput records) is crash-durable: the
// recovered daemon neither resurrects the retired file nor forgets the ages
// of the surviving ones.
func TestGCLoopRetiresOutputsAndSurvivesRestart(t *testing.T) {
	stateDir := t.TempDir()
	// Sequences land at: ret_old=1, ret_fresh0..3=2..5. With the recovered
	// clock at 5 and a window of 3, exactly ret_old (age 4) has expired.
	policy := restore.Policy{KeepAll: true, CheckInputVersions: true, OutputRetention: 3}
	sys := restore.New(restore.WithPolicy(policy))
	d, base := startCrashable(t, Config{System: sys, StateDir: stateDir})
	c := NewClient(base)
	uploadPages(t, c)
	if _, err := c.Submit(fmt.Sprintf(gcQueryTmpl, 1, "out/ret_old"), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(fmt.Sprintf(gcQueryTmpl, 10+i, fmt.Sprintf("out/ret_fresh%d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	// No GC loop on this daemon: crash with the retention table only in
	// the WAL, then recover into a daemon WITH the loop.
	d.crash()

	sys2 := restore.New(restore.WithPolicy(policy))
	d2, base2 := startCrashable(t, Config{System: sys2, StateDir: stateDir, GCInterval: 10 * time.Millisecond})
	defer d2.crash()
	c2 := NewClient(base2)
	waitFor(t, "retention after recovery", func() bool {
		ds, err := c2.Datasets("out/")
		if err != nil {
			return false
		}
		for _, f := range ds {
			if f.Path == "out/ret_old" {
				return false
			}
		}
		return len(ds) > 0
	})
	ds, err := c2.Datasets("out/")
	if err != nil {
		t.Fatal(err)
	}
	fresh := 0
	for _, f := range ds {
		if strings.HasPrefix(f.Path, "out/ret_fresh") {
			fresh++
		}
	}
	if fresh != 4 {
		t.Errorf("retention after recovery kept %d fresh outputs, want 4 (%v)", fresh, ds)
	}
	// The loop adds to the counter after its pass returns, so the file can
	// be gone a moment before the metric says so.
	waitFor(t, "gcOutputsRetired to be reported", func() bool {
		m, err := c2.Metrics()
		return err == nil && m.GCOutputsRetired > 0
	})
}

// TestRepoBudgetOverHTTP holds the daemon's repository under a byte budget
// while a query stream tries to grow it: the per-query pass trims before
// each registration and the GC loop trims the tail end, so the repository
// settles at (not above) the budget with the most-recent entries surviving.
func TestRepoBudgetOverHTTP(t *testing.T) {
	// Each query stores two ~4-5KB sub-job outputs; the budget fits one
	// entry comfortably but never a whole stream's worth.
	const budget = 6000
	_, c := newPolicyServer(t, restore.Policy{KeepAll: true, CheckInputVersions: true, RepoBudgetBytes: budget}, 10*time.Millisecond)
	lines := make([]string, 240)
	for i := range lines {
		lines[i] = fmt.Sprintf("user%02d\t%d\t%d.5", i%40, i%13, i%7)
	}
	if _, err := c.Upload("data/pages", pagesSchema, 3, lines); err != nil {
		t.Fatal(err)
	}
	var peak int64
	for i := 0; i < 8; i++ {
		if _, err := c.Submit(fmt.Sprintf(gcQueryTmpl, i, fmt.Sprintf("out/bud%d", i)), false); err != nil {
			t.Fatal(err)
		}
		m, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if m.RepositoryStoredBytes > peak {
			peak = m.RepositoryStoredBytes
		}
	}
	if peak <= budget {
		t.Fatalf("premise: stream never pressured the %d-byte budget (peak %d)", budget, peak)
	}
	waitFor(t, "budget enforcement", func() bool {
		m, err := c.Metrics()
		if err != nil {
			return false
		}
		return m.RepositoryStoredBytes <= budget && m.Reuse.Evicted > 0 && m.RepositoryEntries > 0
	})
}
