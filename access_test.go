package restore

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPathsConflict(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"out/a", "out/a", true},
		{"out/a", "out/a/part0", true},
		{"out/a/part0", "out/a", true},
		{"out/a", "out/ab", false},
		{"out/ab", "out/a", false},
		{"out/a", "out/b", false},
		{"restore/tmp/q1", "restore/tmp/q10", false},
		{"restore/tmp/q1", "restore/tmp/q1/j0", true},
		{"a", "a/b/c/d", true},
		{"", "", true}, // degenerate: identical empties conflict
	}
	for _, c := range cases {
		if got := PathsConflict(c.a, c.b); got != c.want {
			t.Errorf("PathsConflict(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAccessSetConflicts(t *testing.T) {
	read := func(ps ...string) AccessSet { return AccessSet{Reads: ps} }
	write := func(ps ...string) AccessSet { return AccessSet{Writes: ps} }

	if read("in/a").ConflictsWith(read("in/a")) {
		t.Error("read/read of the same path must not conflict")
	}
	if !write("out/a").ConflictsWith(write("out/a/x")) {
		t.Error("write/write prefix overlap must conflict")
	}
	if !write("in/a").ConflictsWith(read("in/a")) {
		t.Error("write/read must conflict")
	}
	if !read("in/a").ConflictsWith(write("in/a")) {
		t.Error("read/write must conflict")
	}
	if write("out/a").ConflictsWith(read("in/a")) {
		t.Error("disjoint sets must not conflict")
	}
	if !UniversalAccess().ConflictsWith(AccessSet{}) {
		t.Error("universal must conflict with everything, even the empty set")
	}
	if !read("in/a").ConflictsWith(UniversalAccess()) {
		t.Error("everything must conflict with universal")
	}
}

// TestLeaseTableDisjointConcurrency checks that disjoint leases are held
// simultaneously while conflicting ones exclude each other.
func TestLeaseTableDisjointConcurrency(t *testing.T) {
	var lt leaseTable

	a := lt.acquire(AccessSet{Writes: []string{"out/a"}})
	b := lt.acquire(AccessSet{Writes: []string{"out/b"}})
	if lt.inflightCount() != 2 {
		t.Fatalf("disjoint leases in flight = %d, want 2", lt.inflightCount())
	}

	// A conflicting acquire must block until both holders release.
	gotC := make(chan *execLease)
	go func() { gotC <- lt.acquire(AccessSet{Reads: []string{"out/a"}, Writes: []string{"out/b/x"}}) }()
	select {
	case <-gotC:
		t.Fatal("conflicting lease granted while conflicts in flight")
	case <-time.After(20 * time.Millisecond):
	}
	lt.release(a)
	select {
	case <-gotC:
		t.Fatal("lease granted while write overlap still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	lt.release(b)
	c := <-gotC
	lt.release(c)
	if lt.inflightCount() != 0 {
		t.Fatalf("leases left in flight: %d", lt.inflightCount())
	}
}

// TestLeaseTableExtendReads covers the mid-run read extension the rewriter
// uses for user-named stored outputs: it must fail while a conflicting
// writer is in flight, succeed otherwise, and once granted make later
// conflicting writers wait.
func TestLeaseTableExtendReads(t *testing.T) {
	var lt leaseTable
	reader := lt.acquire(AccessSet{Reads: []string{"in/a"}, Writes: []string{"out/q"}})
	writer := lt.acquire(AccessSet{Writes: []string{"out/x"}})

	if lt.extendReads(reader, "out/x") {
		t.Fatal("extension granted while a conflicting writer is in flight")
	}
	if lt.extendReads(reader, "out/x/part0") {
		t.Fatal("prefix-overlapping extension granted while a conflicting writer is in flight")
	}
	lt.release(writer)
	if !lt.extendReads(reader, "out/x") {
		t.Fatal("extension refused with no conflicting writer in flight")
	}

	// A new writer on the extended path must now wait for the reader.
	gotW := make(chan *execLease)
	go func() { gotW <- lt.acquire(AccessSet{Writes: []string{"out/x"}}) }()
	select {
	case <-gotW:
		t.Fatal("writer admitted against an extended read lease")
	case <-time.After(20 * time.Millisecond):
	}
	lt.release(reader)
	lt.release(<-gotW)
}

// TestLeaseTableUniversalDrains checks the drain barrier: a universal
// acquire waits for all in-flight leases, and later disjoint acquires queue
// behind it instead of starving it.
func TestLeaseTableUniversalDrains(t *testing.T) {
	var lt leaseTable
	a := lt.acquire(AccessSet{Writes: []string{"out/a"}})

	var uniGranted, lateGranted atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	uniReady := make(chan struct{})
	go func() {
		defer wg.Done()
		close(uniReady)
		u := lt.acquire(UniversalAccess())
		uniGranted.Store(true)
		if lateGranted.Load() {
			t.Error("later disjoint lease overtook the waiting universal")
		}
		lt.release(u)
	}()
	<-uniReady
	time.Sleep(10 * time.Millisecond) // let the universal join the wait queue
	go func() {
		defer wg.Done()
		l := lt.acquire(AccessSet{Writes: []string{"out/b"}})
		lateGranted.Store(true)
		if !uniGranted.Load() {
			t.Error("disjoint lease granted before the earlier universal")
		}
		lt.release(l)
	}()
	time.Sleep(10 * time.Millisecond)
	if uniGranted.Load() {
		t.Fatal("universal granted while a lease is in flight")
	}
	lt.release(a)
	wg.Wait()
}

// The admission rules, one test each. The lease table is the only admission
// controller in the repository (the daemon's scheduler only counts slots),
// so these are the tests of the rule.

// leaseDomain is the surface the rule tests need from the lease table: a
// blocking acquire handing back its release, and how many acquirers are
// parked in the wait queue right now.
type leaseDomain struct {
	acquire func(AccessSet) (release func())
	waiters func() int
}

func (lt *leaseTable) waiterCount() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.waiting)
}

// eachLeaseDomain runs fn against a fresh lease table.
func eachLeaseDomain(t *testing.T, fn func(t *testing.T, d leaseDomain)) {
	t.Run("leaseTable", func(t *testing.T) {
		var lt leaseTable
		fn(t, leaseDomain{
			acquire: func(a AccessSet) func() { l := lt.acquire(a); return func() { lt.release(l) } },
			waiters: lt.waiterCount,
		})
	})
}

// enqueue starts an acquire on its own goroutine and returns the channel
// its release func arrives on once granted. When queued is non-negative it
// first waits until exactly that many acquirers are parked, which fixes the
// queue order of successive enqueues; grants happen under the table mutex
// inside acquire and release, so once the count is reached a still-empty
// channel means "blocked", with no sleep to tune.
func (d leaseDomain) enqueue(t *testing.T, a AccessSet, queued int) <-chan func() {
	t.Helper()
	got := make(chan func(), 1)
	go func() { got <- d.acquire(a) }()
	if queued >= 0 {
		deadline := time.Now().Add(5 * time.Second)
		for d.waiters() != queued {
			if time.Now().After(deadline) {
				t.Fatalf("acquirers parked = %d, want %d", d.waiters(), queued)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return got
}

// granted waits for an acquire that must succeed.
func granted(t *testing.T, what string, got <-chan func()) func() {
	t.Helper()
	select {
	case release := <-got:
		return release
	case <-time.After(5 * time.Second):
		t.Fatalf("%s was never granted", what)
		return nil
	}
}

// blocked asserts an enqueued acquire has not been granted: it is still one
// of the parked acquirers (a synchronous fact, see enqueue) and nothing has
// arrived on its channel.
func (d leaseDomain) blocked(t *testing.T, what string, got <-chan func(), parked int) {
	t.Helper()
	if w := d.waiters(); w != parked {
		t.Fatalf("%s should still be parked: %d acquirers parked, want %d", what, w, parked)
	}
	select {
	case <-got:
		t.Fatalf("%s was granted", what)
	default:
	}
}

func TestLeaseRuleHeadFirst(t *testing.T) {
	eachLeaseDomain(t, func(t *testing.T, d leaseDomain) {
		hold := d.acquire(AccessSet{Writes: []string{"out/a"}})
		head := d.enqueue(t, AccessSet{Writes: []string{"out/a/x"}}, 1)
		next := d.enqueue(t, AccessSet{Writes: []string{"out/a"}}, 2)
		hold()
		releaseHead := granted(t, "the queue head", head)
		d.blocked(t, "a waiter conflicting with the granted head", next, 1)
		releaseHead()
		granted(t, "the second waiter", next)()
	})
}

func TestLeaseRuleOvertakesBlockedHead(t *testing.T) {
	eachLeaseDomain(t, func(t *testing.T, d leaseDomain) {
		hold := d.acquire(AccessSet{Writes: []string{"out/a"}})
		head := d.enqueue(t, AccessSet{Reads: []string{"out/a"}, Writes: []string{"out/c"}}, 1) // reads an in-flight write
		late := d.enqueue(t, AccessSet{Writes: []string{"out/b"}}, -1)                          // disjoint from both
		releaseLate := granted(t, "a disjoint arrival behind a blocked head", late)
		d.blocked(t, "the head, while its conflict is in flight", head, 1)
		releaseLate()
		hold()
		granted(t, "the head", head)()
	})
}

func TestLeaseRuleNeverReordersConflictingWaiters(t *testing.T) {
	eachLeaseDomain(t, func(t *testing.T, d leaseDomain) {
		hold := d.acquire(AccessSet{Writes: []string{"out/a"}})
		head := d.enqueue(t, AccessSet{Reads: []string{"out/a"}, Writes: []string{"out/c"}}, 1)
		// Disjoint from everything in flight, but reads what the head writes.
		next := d.enqueue(t, AccessSet{Reads: []string{"out/c"}, Writes: []string{"out/d"}}, 2)
		d.blocked(t, "a waiter conflicting with a queued predecessor", next, 2)
		hold()
		releaseHead := granted(t, "the head", head)
		d.blocked(t, "the second waiter, while the head it conflicts with runs", next, 1)
		releaseHead()
		granted(t, "the second waiter", next)()
	})
}

func TestLeaseRuleUniversalIsABarrier(t *testing.T) {
	eachLeaseDomain(t, func(t *testing.T, d leaseDomain) {
		hold := d.acquire(AccessSet{Writes: []string{"out/a"}})
		uni := d.enqueue(t, UniversalAccess(), 1)
		late := d.enqueue(t, AccessSet{Writes: []string{"out/b"}}, 2)
		d.blocked(t, "an arrival behind a queued universal", late, 2)
		hold()
		releaseUni := granted(t, "the universal, once in-flight work drained", uni)
		d.blocked(t, "an arrival, while the universal is held", late, 1)
		releaseUni()
		granted(t, "the arrival behind the barrier", late)()
	})
}

// randAccess draws a small access set from a hierarchical path universe, so
// generated sets exercise exact, prefix, and disjoint overlaps.
func randAccess(rng *rand.Rand) AccessSet {
	universe := []string{
		"in/a", "in/b", "in/c",
		"out/a", "out/a/x", "out/a/y", "out/b", "out/b/deep/leaf", "out/c",
		"restore/tmp/q1", "restore/tmp/q2",
	}
	var a AccessSet
	for i := 0; i < 1+rng.Intn(3); i++ {
		a.Reads = append(a.Reads, universe[rng.Intn(len(universe))])
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		a.Writes = append(a.Writes, universe[rng.Intn(len(universe))])
	}
	if rng.Intn(40) == 0 {
		a = UniversalAccess() // occasional checkpoint-like task
	}
	return a
}

// TestPropertyLeasesNeverAdmitConflictsConcurrently generates random
// workloads and asserts the safety and liveness properties admission
// promises: no two conflicting sets are ever held together, and every
// acquirer is eventually admitted (disjoint ones are not starved, blocked
// ones are not dropped). Seeds are fixed so a failure reproduces.
func TestPropertyLeasesNeverAdmitConflictsConcurrently(t *testing.T) {
	eachLeaseDomain(t, func(t *testing.T, d leaseDomain) {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				const tasks = 80
				var mu sync.Mutex
				active := make(map[int]AccessSet)
				ran := 0
				var wg sync.WaitGroup
				for i := 0; i < tasks; i++ {
					access := randAccess(rng)
					wg.Add(1)
					go func() {
						defer wg.Done()
						release := d.acquire(access)
						mu.Lock()
						for j, other := range active {
							if access.ConflictsWith(other) {
								t.Errorf("seed %d: task %d (%+v) held concurrently with conflicting task %d (%+v)",
									seed, i, access, j, other)
							}
						}
						active[i] = access
						mu.Unlock()

						runtime.Gosched() // widen the overlap window

						mu.Lock()
						delete(active, i)
						ran++
						mu.Unlock()
						release()
					}()
				}
				wg.Wait()
				if ran != tasks {
					t.Fatalf("seed %d: ran %d of %d tasks — admission lost or starved work", seed, ran, tasks)
				}
				if w := d.waiters(); w != 0 {
					t.Fatalf("seed %d: %d acquirers still parked after every task ran", seed, w)
				}
			})
		}
	})
}
