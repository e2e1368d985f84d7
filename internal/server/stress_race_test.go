package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	restore "repro"
)

// Race/stress battery: hammer the concurrent execution path from many
// goroutines with a deliberately nasty mix — disjoint writes, identical
// scripts (single-flight at the daemon, write-write leases at the System),
// and prefix-overlapping store namespaces — and assert the global
// invariants that pin the conflict semantics down. Run under -race (the
// Makefile `check` target does).

// TestStressSystemMixedConflicts drives System.ExecutePrepared directly:
// no daemon-side scheduler, so the System's own lease table is the only
// thing between N goroutines and a torn DFS.
func TestStressSystemMixedConflicts(t *testing.T) {
	sys := restore.New()
	seedStressData(t, sys)

	const workers = 8
	const rounds = 5
	type outcome struct {
		seq int64
		err error
	}
	outcomes := make(chan outcome, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var src string
				switch r % 3 {
				case 0:
					// Disjoint: per-worker output namespace.
					src = fmt.Sprintf(`A = load 'in/s0' as (k:int, v:int);
B = filter A by v > %d;
store B into 'out/w%d/r%d';`, (w*rounds+r)%7, w, r)
				case 1:
					// Identical across workers: write-write conflict on the
					// same store path, must serialize and stay consistent.
					src = `A = load 'in/s1' as (k:int, v:int);
B = group A by k;
C = foreach B generate group, COUNT(A);
store C into 'out/shared';`
				default:
					// Prefix-overlapping: out/p vs out/p/<w> — the
					// conflict detector must treat these as overlapping.
					if w%2 == 0 {
						src = fmt.Sprintf(`A = load 'in/s2' as (k:int, v:int);
B = filter A by v > 5;
store B into 'out/p/w%d';`, w)
					} else {
						src = `A = load 'in/s2' as (k:int, v:int);
B = filter A by v > 5;
store B into 'out/p';`
					}
				}
				p, err := sys.Prepare(src)
				if err != nil {
					outcomes <- outcome{err: err}
					continue
				}
				res, err := sys.ExecutePrepared(p)
				if err != nil {
					outcomes <- outcome{err: err}
					continue
				}
				outcomes <- outcome{seq: res.Seq}
			}
		}()
	}
	wg.Wait()
	close(outcomes)

	total := workers * rounds
	seqs := make(map[int64]bool)
	var maxSeq int64
	n := 0
	for o := range outcomes {
		if o.err != nil {
			t.Fatalf("execution failed under stress: %v", o.err)
		}
		if o.seq <= 0 {
			t.Fatalf("result carries no sequence number: %d", o.seq)
		}
		if seqs[o.seq] {
			t.Fatalf("duplicate sequence number %d — two executions admitted as one", o.seq)
		}
		seqs[o.seq] = true
		if o.seq > maxSeq {
			maxSeq = o.seq
		}
		n++
	}
	if n != total {
		t.Fatalf("got %d results, want %d", n, total)
	}
	// Seq is assigned once per execution from a shared counter: with no
	// other traffic, the set must be exactly 1..total (monotone, no gaps,
	// nothing lost).
	if maxSeq != int64(total) {
		t.Errorf("max seq = %d, want %d (gaps mean admissions were lost)", maxSeq, total)
	}

	// Stats counters must account for every execution exactly once.
	stats := sys.Stats()
	if stats.Queries != int64(total) {
		t.Errorf("stats.Queries = %d, want %d", stats.Queries, total)
	}
	if stats.QueriesReused == 0 {
		t.Error("no reuse under the stress mix — repository not shared across workers")
	}

	// No lost repository entries: every entry's stored output must still
	// exist in the DFS (an entry whose file vanished would poison every
	// future rewrite), and the repository must not be empty.
	repo := sys.Repository()
	if repo.Len() == 0 {
		t.Fatal("repository empty after the stress mix")
	}
	for _, e := range repo.OrderedSnapshot() {
		if !sys.FS().Exists(e.OutputPath) {
			t.Errorf("repository entry %s lost its stored output %s", e.ID, e.OutputPath)
		}
	}
}

// TestStressDaemonMixedTraffic drives the same mix through the HTTP
// daemon, adding single-flight dedup, uploads riding alongside queries,
// and the metrics identity submitted = executed + deduped + failed.
func TestStressDaemonMixedTraffic(t *testing.T) {
	sys := restore.New()
	seedStressData(t, sys)
	base, stop := startDaemon(t, Config{System: sys, Workers: 4})
	defer stop()

	const clients = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*2)
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(base)
			for r := 0; r < rounds; r++ {
				var src string
				if r%2 == 0 {
					// Identical across clients: the single-flight layer
					// collapses the pile-up.
					src = fmt.Sprintf(`A = load 'in/s0' as (k:int, v:int);
B = group A by k;
C = foreach B generate group, COUNT(A);
store C into 'out/dedup/r%d';`, r)
				} else {
					src = fmt.Sprintf(`A = load 'in/s1' as (k:int, v:int);
B = filter A by v > %d;
store B into 'out/cl%d/r%d';`, r, cl, r)
				}
				if _, err := c.Submit(src, true); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", cl, r, err)
					return
				}
				// Concurrent uploads to fresh paths must ride alongside
				// query execution without invalidating anything.
				if _, err := c.Upload(fmt.Sprintf("in/up%d_%d", cl, r), "k:int, v:int",
					1, []string{"1\t2", "3\t4"}); err != nil {
					errs <- fmt.Errorf("client %d upload %d: %w", cl, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m, err := NewClient(base).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesSubmitted != int64(clients*rounds) {
		t.Errorf("submitted = %d, want %d", m.QueriesSubmitted, clients*rounds)
	}
	if m.QueriesSubmitted != m.QueriesExecuted+m.QueriesDeduped+m.QueriesFailed {
		t.Errorf("metrics identity broken: submitted=%d executed=%d deduped=%d failed=%d",
			m.QueriesSubmitted, m.QueriesExecuted, m.QueriesDeduped, m.QueriesFailed)
	}
	if m.QueriesFailed != 0 {
		t.Errorf("%d queries failed under stress", m.QueriesFailed)
	}
	if m.Uploads != int64(clients*rounds) {
		t.Errorf("uploads = %d, want %d", m.Uploads, clients*rounds)
	}
	if m.Workers != 4 {
		t.Errorf("workers = %d, want 4", m.Workers)
	}
	// System-level accounting agrees with the daemon's.
	if m.Reuse.Queries != m.QueriesExecuted {
		t.Errorf("system executed %d queries, daemon says %d", m.Reuse.Queries, m.QueriesExecuted)
	}
	for _, e := range sys.Repository().OrderedSnapshot() {
		if !sys.FS().Exists(e.OutputPath) {
			t.Errorf("repository entry %s lost its stored output %s", e.ID, e.OutputPath)
		}
	}
}

// TestRowsReadUnderEvictionStormNeverResubmits pins what reading rows inside
// the execution's lease and pin window buys. Each reader alternates a long
// query, whose aggregate is materialized as a repository-owned sub-job
// file, with a readOutputs query that is exactly that sub-job — so its
// output aliases the stored file instead of being written — plus a second,
// never-repeated pipeline that keeps the query off the stored-result fast
// path and on the leased execution path. Beside them,
// path-disjoint queries store new entries under a size budget a fraction of
// what the traffic produces, so their eviction phases (and a fast GC loop
// off the request path) keep deleting the least-recently-used stored files.
// Every request must succeed with the rows a quiet system returns, and the
// daemon must have counted exactly one submission per request: there is no
// retry to hide a lost race behind.
func TestRowsReadUnderEvictionStormNeverResubmits(t *testing.T) {
	sys := restore.New(restore.WithPolicy(restore.Policy{
		KeepAll: true, CheckInputVersions: true, RepoBudgetBytes: 4 << 10,
	}))
	seedStressData(t, sys)
	base, stop := startDaemon(t, Config{System: sys, Workers: 4, GCInterval: time.Millisecond})
	defer stop()

	const (
		readers  = 3
		stormers = 3
		rounds   = 20
	)
	const aggregate = `A = load 'in/s0' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group as k, COUNT(B) as n, SUM(B.v) as total;
`
	longQuery := func(cut, reader int) string {
		return fmt.Sprintf(aggregate+`E = filter D by n > 1;
store E into 'out/long/c%d';`, cut, reader)
	}
	var fresh atomic.Int64
	readQuery := func(cut, reader int) (src, out string) {
		out = fmt.Sprintf("out/read/c%d", reader)
		return fmt.Sprintf(aggregate+`store D into '%s';
X = load 'in/s0' as (k:int, v:int);
Y = filter X by k > %d;
store Y into '%s-side';`, cut, out, fresh.Add(1), out), out
	}
	// The reference rows come from a quiet system with reuse off.
	want := make(map[int]string)
	ref := restore.New(restore.WithReuse(false), restore.WithRegistration(false))
	seedStressData(t, ref)
	for cut := 0; cut < 3; cut++ {
		src, out := readQuery(cut, 0)
		res, err := ref.Execute(src)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ref.ReadOutputTSV(res, out)
		if err != nil {
			t.Fatal(err)
		}
		want[cut] = fmt.Sprint(rows)
	}

	var wg sync.WaitGroup
	var sent atomic.Int64
	errs := make(chan error, readers+stormers)
	for id := 0; id < readers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := NewClient(base)
			for r := 0; r < rounds; r++ {
				cut := (r + id) % 3
				sent.Add(1)
				if _, err := c.Submit(longQuery(cut, id), false); err != nil {
					errs <- fmt.Errorf("reader %d round %d (long): %w", id, r, err)
					return
				}
				src, out := readQuery(cut, id)
				sent.Add(1)
				resp, err := c.Submit(src, true)
				if err != nil {
					errs <- fmt.Errorf("reader %d round %d: %w", id, r, err)
					return
				}
				if got := fmt.Sprint(resp.Rows[out]); got != want[cut] {
					errs <- fmt.Errorf("reader %d round %d (cut %d): rows diverged:\ngot:  %s\nwant: %s", id, r, cut, got, want[cut])
					return
				}
			}
		}(id)
	}
	for id := 0; id < stormers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := NewClient(base)
			for r := 0; r < rounds; r++ {
				// Distinct constants and outputs: every query stores new
				// entries, so every eviction phase has a budget to enforce.
				src := fmt.Sprintf(`A = load 'in/s%d' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B);
store D into 'out/storm/c%d/r%d';`, 1+id%2, r%17, id, r)
				sent.Add(1)
				if _, err := c.Submit(src, false); err != nil {
					errs <- fmt.Errorf("stormer %d round %d: %w", id, r, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m, err := NewClient(base).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesSubmitted != sent.Load() {
		t.Errorf("queriesSubmitted = %d for %d requests: a submission was repeated behind the client's back", m.QueriesSubmitted, sent.Load())
	}
	if m.QueriesFailed != 0 {
		t.Errorf("queriesFailed = %d under the storm, want 0", m.QueriesFailed)
	}
	if m.QueriesSubmitted != m.QueriesExecuted+m.QueriesDeduped+m.QueriesFailed {
		t.Errorf("identity broken: submitted=%d executed=%d deduped=%d failed=%d",
			m.QueriesSubmitted, m.QueriesExecuted, m.QueriesDeduped, m.QueriesFailed)
	}
	if m.Reuse.Evicted+m.GCEvicted == 0 {
		t.Error("the storm evicted nothing: the budget is too loose to exercise the race")
	}
}

// TestConflictChainDeeperThanWorkersDrains is the liveness half of moving
// admission into the lease table: a lease waiter now occupies a worker slot,
// so a chain of mutually conflicting queries deeper than the pool fills
// every slot with waiters while path-disjoint work queues behind them. That
// must only delay the disjoint work, never wedge or shed it: every lease
// holder already owns a slot (or, like the barrier held here, needs none).
func TestConflictChainDeeperThanWorkersDrains(t *testing.T) {
	sys := restore.New()
	seedStressData(t, sys)
	const workers = 2
	base, stop := startDaemon(t, Config{System: sys, Workers: workers})
	defer stop()

	const (
		chain    = 6 // all store into one path: write/write conflicts
		disjoint = 8
		uploads  = 2
	)
	// Hold the universal lease from outside the pool until the whole load
	// is parked: the first `workers` arrivals wait for it inside slots, the
	// rest wait in the queue for a slot.
	release := make(chan struct{})
	held := make(chan struct{})
	quiesced := make(chan error, 1)
	go func() {
		quiesced <- sys.Quiesce(func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	var wg sync.WaitGroup
	errs := make(chan error, chain+disjoint+uploads)
	submit := func(src string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := NewClient(base).Submit(src, true); err != nil {
				errs <- err
			}
		}()
	}
	for i := 0; i < chain; i++ {
		submit(fmt.Sprintf(`A = load 'in/s0' as (k:int, v:int);
B = filter A by v > %d;
store B into 'out/chain';`, i))
	}
	for i := 0; i < disjoint; i++ {
		submit(fmt.Sprintf(`A = load 'in/s%d' as (k:int, v:int);
B = filter A by v > %d;
store B into 'out/free/q%d';`, 1+i%2, i, i))
	}
	for i := 0; i < uploads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := NewClient(base).Upload(fmt.Sprintf("in/late%d", i), "k:int, v:int", 1, []string{"1\t2"}); err != nil {
				errs <- err
			}
		}(i)
	}
	c := NewClient(base)
	waitFor(t, "the whole load to park behind the barrier", func() bool {
		m, err := c.Metrics()
		return err == nil && m.QueueDepth == chain+disjoint+uploads && m.Executing == workers
	})
	close(release)
	if err := <-quiesced; err != nil {
		t.Fatal(err)
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
	if m.QueriesFailedShed != 0 || m.QueriesFailed != 0 {
		t.Errorf("shed=%d failed=%d, want 0/0", m.QueriesFailedShed, m.QueriesFailed)
	}
	if m.QueriesExecuted != chain+disjoint || m.Uploads != uploads {
		t.Errorf("executed=%d uploads=%d, want %d/%d", m.QueriesExecuted, m.Uploads, chain+disjoint, uploads)
	}
	if m.QueueDepth != 0 || m.Executing != 0 {
		t.Errorf("drained daemon reports depth=%d executing=%d", m.QueueDepth, m.Executing)
	}
}

// seedStressData loads the three deterministic datasets the stress queries
// read.
func seedStressData(t *testing.T, sys *restore.System) {
	t.Helper()
	for d := 0; d < 3; d++ {
		lines := make([]string, 200)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", (i*7+d)%13, (i*11+d)%17)
		}
		if err := sys.LoadTSV(fmt.Sprintf("in/s%d", d), "k:int, v:int", lines, 2); err != nil {
			t.Fatal(err)
		}
	}
}
