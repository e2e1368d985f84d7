package restore

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shardkey"
)

// This file implements the concurrency substrate that lets path-disjoint
// workflows execute in parallel: declared read/write path sets (AccessSet)
// and a FIFO-fair lease table that admits an execution only when its sets
// are disjoint from every in-flight one.
//
// Every declared path covers its whole subtree: a write lease on
// "restore/tmp/q7" conflicts with any read or write under
// "restore/tmp/q7/...". Reads share; writes exclude.
//
// What the lease table guarantees:
//
//   - Mutual exclusion by declaration: while a lease is held, no other
//     lease whose set conflicts with it (write/write, write/read,
//     read/write, or either universal) is in flight. Operations touching
//     only disjoint paths are never serialized against each other.
//   - FIFO fairness without starvation: a waiter is admitted once its set
//     is disjoint from every in-flight lease AND every earlier waiter, so
//     later disjoint arrivals may pass a blocked waiter but a conflicting
//     one never can — a universal waiter (checkpoint/compaction) cannot be
//     starved by a stream of small leases behind it.
//   - A universal lease is a full drain barrier: when granted, nothing
//     else is in flight, and nothing is admitted until it is released.
//     System.Quiesce/SaveState/AdoptRepository rely on this to observe (or
//     swap) globally consistent state.
//   - Mid-run read extension (extendReads) never introduces a conflict:
//     it is refused if any other in-flight lease writes an overlapping
//     path, in which case the caller must skip the optimisation (the
//     rewriter then simply re-executes instead of reusing).

// AccessSet declares the DFS paths an operation may read and write. Paths
// are prefix-scoped: a set containing "out/a" also covers "out/a/part0".
// The zero value conflicts with nothing and is never blocked.
type AccessSet struct {
	// Reads are paths loaded as inputs. Concurrent readers of the same
	// path are allowed.
	Reads []string
	// Writes are paths (and namespaces) the operation may create, rewrite,
	// or delete. A write conflicts with any concurrent read or write of an
	// overlapping path.
	Writes []string
	// Universal marks an operation that logically touches every path —
	// checkpoints, repository swaps, scale changes. It conflicts with
	// everything, so acquiring it drains all in-flight work and blocks new
	// admissions until released.
	Universal bool
}

// UniversalAccess is the write-set-universal AccessSet used by checkpoints
// and other whole-system operations.
func UniversalAccess() AccessSet { return AccessSet{Universal: true} }

// PathsConflict reports whether two DFS paths overlap under prefix scoping:
// they are equal, or one is a parent directory of the other at a '/'
// boundary ("out/a" vs "out/a/x" conflict; "out/a" vs "out/ab" do not).
func PathsConflict(a, b string) bool {
	if a == b {
		return true
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	return strings.HasPrefix(b, a) && b[len(a)] == '/'
}

// overlaps reports whether any path in as overlaps any path in bs.
func overlaps(as, bs []string) bool {
	for _, a := range as {
		for _, b := range bs {
			if PathsConflict(a, b) {
				return true
			}
		}
	}
	return false
}

// ConflictsWith reports whether two operations may not run concurrently:
// either is universal, or their sets overlap read/write, write/read, or
// write/write. Read/read overlap is not a conflict.
func (a AccessSet) ConflictsWith(b AccessSet) bool {
	if a.Universal || b.Universal {
		return true
	}
	return overlaps(a.Writes, b.Writes) ||
		overlaps(a.Writes, b.Reads) ||
		overlaps(a.Reads, b.Writes)
}

// normalize sorts and deduplicates the path lists (stable declaration order
// helps tests and debugging; conflict checks do not depend on it).
func (a *AccessSet) normalize() {
	a.Reads = dedupSorted(a.Reads)
	a.Writes = dedupSorted(a.Writes)
}

func dedupSorted(ps []string) []string {
	if len(ps) < 2 {
		return ps
	}
	sort.Strings(ps)
	out := ps[:1]
	for _, p := range ps[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// execLease is one granted admission into the execution phase.
type execLease struct {
	access AccessSet
	ready  chan struct{}
}

// leaseTable admits operations in FIFO order: a waiter is granted once its
// AccessSet is disjoint from every in-flight lease and from every waiter
// ahead of it. The ahead-of-it check keeps admission fair — a universal
// waiter (checkpoint) cannot be starved by a stream of later disjoint
// arrivals, because those queue behind it.
type leaseTable struct {
	mu       sync.Mutex
	waiting  []*execLease
	inflight map[*execLease]struct{}
}

// acquire blocks until the access set can be admitted and returns the
// lease. The caller must release it. The set is not copied or mutated —
// callers sharing one set across goroutines (Prepared.Access) rely on
// acquire treating it as read-only.
func (lt *leaseTable) acquire(a AccessSet) *execLease {
	l := &execLease{access: a, ready: make(chan struct{})}
	lt.mu.Lock()
	if lt.inflight == nil {
		lt.inflight = make(map[*execLease]struct{})
	}
	lt.waiting = append(lt.waiting, l)
	lt.promote()
	lt.mu.Unlock()
	<-l.ready
	return l
}

// release returns a lease and admits any now-eligible waiters.
func (lt *leaseTable) release(l *execLease) {
	lt.mu.Lock()
	delete(lt.inflight, l)
	lt.promote()
	lt.mu.Unlock()
}

// promote grants eligible waiters in FIFO order. Called with mu held.
func (lt *leaseTable) promote() {
	for i := 0; i < len(lt.waiting); {
		w := lt.waiting[i]
		if lt.blocked(w, i) {
			i++
			continue
		}
		lt.waiting = append(lt.waiting[:i], lt.waiting[i+1:]...)
		lt.inflight[w] = struct{}{}
		close(w.ready)
	}
}

// blocked reports whether waiter w (at queue position pos) conflicts with
// an in-flight lease or an earlier waiter.
func (lt *leaseTable) blocked(w *execLease, pos int) bool {
	for f := range lt.inflight {
		if w.access.ConflictsWith(f.access) {
			return true
		}
	}
	for _, ahead := range lt.waiting[:pos] {
		if w.access.ConflictsWith(ahead.access) {
			return true
		}
	}
	return false
}

// extendReads adds path to a held lease's read set — used when an
// execution discovers mid-run that a rewrite wants to read a user-named
// stored output its declared sets could not predict. The extension is
// refused (false) when any other in-flight lease writes a conflicting
// path: the caller must then skip that reuse instead of racing the writer.
// On success, later admissions (including already-queued waiters) see the
// extended set and serialize against it.
func (lt *leaseTable) extendReads(l *execLease, path string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	probe := AccessSet{Reads: []string{path}}
	for f := range lt.inflight {
		if f != l && probe.ConflictsWith(f.access) {
			return false
		}
	}
	// Copy-on-write: the original Reads slice may be shared with the
	// Prepared value other goroutines are reading.
	l.access.Reads = append(append([]string(nil), l.access.Reads...), path)
	return true
}

// insertRead installs a fresh read-only single-path lease directly into the
// in-flight set, bypassing the queue — the sharded extendReads uses it when
// a held lease extends into a table it was not registered in. Like
// extendReads, it checks only in-flight leases (waiters are passed, exactly
// as a same-table extension would pass them) and refuses when any in-flight
// writer conflicts.
func (lt *leaseTable) insertRead(path string) (*execLease, bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	probe := AccessSet{Reads: []string{path}}
	for f := range lt.inflight {
		if probe.ConflictsWith(f.access) {
			return nil, false
		}
	}
	if lt.inflight == nil {
		lt.inflight = make(map[*execLease]struct{})
	}
	l := &execLease{access: probe, ready: make(chan struct{})}
	close(l.ready)
	lt.inflight[l] = struct{}{}
	return l, true
}

// inflightCount reports how many leases are currently held (tests and
// metrics).
func (lt *leaseTable) inflightCount() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.inflight)
}

// heldLease is one logical admission granted by shardedLeases: the declared
// set plus the per-table leases that realize it. parts[i] is held in table
// shards[i]; shards is ascending for the parts taken at acquire time
// (extensions may append out of order — release order is irrelevant, only
// blocking acquisition must be ordered).
type heldLease struct {
	access AccessSet
	shards []int
	parts  []*execLease
}

// shardedLeases splits the lease table by shard key: an access set
// registers (its full declared set) in exactly the tables shardkey.Shards
// derives from its paths, so disjoint queries routed to different shards
// are admitted without ever touching the same mutex. Universal sets — and
// sets containing a shallow path, whose prefix scope spans shard roots —
// become the cross-shard barrier: they acquire every table, always in
// ascending index order (as does any multi-table set), so two barriers or a
// barrier and a multi-shard query can never deadlock.
//
// Conflict detection stays exact: shardkey guarantees any two conflicting
// paths either share a deep root (same table sees both sets) or one side is
// shallow (its barrier visits every table). Within a shared table the usual
// path-overlap check applies, so two sets that merely share a table but not
// paths still run concurrently. All leaseTable guarantees (FIFO fairness,
// drain-barrier universals, non-racing extendReads) are preserved per
// table; a single-table shardedLeases is behaviorally identical to the bare
// leaseTable and serves as the differential oracle.
type shardedLeases struct {
	tables []leaseTable
	// obs records admission waits and queue/in-flight gauges once per
	// logical acquire. Set via System.SetObserver before traffic.
	obs *obs.Registry
}

// newShardedLeases returns a lease domain with n independently locked
// tables (n < 1 is clamped to 1).
func newShardedLeases(n int) *shardedLeases {
	if n < 1 {
		n = 1
	}
	return &shardedLeases{tables: make([]leaseTable, n)}
}

// leasePaths collects the declared paths of a set into a fresh slice (the
// caller's slices are shared read-only and must not be appended to).
func leasePaths(a AccessSet) []string {
	out := make([]string, 0, len(a.Reads)+len(a.Writes))
	out = append(out, a.Reads...)
	return append(out, a.Writes...)
}

// acquire blocks until the access set is admitted in every table its paths
// route to and returns the logical lease. Tables are acquired in ascending
// index order; the caller must release the result.
func (sl *shardedLeases) acquire(a AccessSet) *heldLease {
	start := time.Now()
	shards, _ := shardkey.Shards(leasePaths(a), a.Universal, len(sl.tables))
	sl.obs.LeaseQueued(1)
	if a.Universal {
		// Universal barriers (checkpoints, repository swaps) stall until the
		// whole system drains; surfacing how many are stalled — and for how
		// long, via the lease-wait histogram — is the signal that tells an
		// operator compaction cadence is fighting live traffic.
		sl.obs.UniversalQueued(1)
	}
	h := &heldLease{access: a, shards: shards, parts: make([]*execLease, 0, len(shards))}
	for _, si := range shards {
		h.parts = append(h.parts, sl.tables[si].acquire(a))
	}
	sl.obs.LeaseQueued(-1)
	if a.Universal {
		sl.obs.UniversalQueued(-1)
	}
	sl.obs.LeaseAdmitted(1)
	sl.obs.ObserveLeaseWait(time.Since(start))
	return h
}

// release returns every table's part (reverse acquisition order) and admits
// now-eligible waiters.
func (sl *shardedLeases) release(h *heldLease) {
	for i := len(h.parts) - 1; i >= 0; i-- {
		sl.tables[h.shards[i]].release(h.parts[i])
	}
	sl.obs.LeaseAdmitted(-1)
}

// extendReads adds path to the held lease's coverage mid-run (see
// leaseTable.extendReads for the contract). The path's home table is where
// any conflicting writer must be registered — deep conflicting paths share
// its root's table, shallow writers barrier into every table — so the
// extension registers there: extending the existing part when the lease
// holds one, or inserting a fresh read-only lease otherwise. A shallow path
// (multi-root prefix scope) cannot be covered by one table, so it is
// refused and the caller skips that reuse — except at one table, where
// routing is trivially total.
func (sl *shardedLeases) extendReads(h *heldLease, path string) bool {
	n := len(sl.tables)
	if _, deep := shardkey.Root(path); !deep && n > 1 {
		return false
	}
	t := shardkey.Index(path, n)
	for i, si := range h.shards {
		if si == t {
			return sl.tables[t].extendReads(h.parts[i], path)
		}
	}
	part, ok := sl.tables[t].insertRead(path)
	if !ok {
		return false
	}
	h.shards = append(h.shards, t)
	h.parts = append(h.parts, part)
	return true
}

// inflightCount reports how many per-table leases are currently held,
// summed over tables (tests and metrics; a k-table logical lease counts k).
func (sl *shardedLeases) inflightCount() int {
	n := 0
	for i := range sl.tables {
		n += sl.tables[i].inflightCount()
	}
	return n
}
