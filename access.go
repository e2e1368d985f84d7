package restore

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
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
	// obs records admission waits and queue/in-flight gauges. Set via
	// System.SetObserver before traffic.
	obs *obs.Registry
}

// acquire blocks until the access set can be admitted and returns the
// lease. The caller must release it. The set is not copied or mutated —
// callers sharing one set across goroutines (Prepared.Access) rely on
// acquire treating it as read-only.
func (lt *leaseTable) acquire(a AccessSet) *execLease {
	start := time.Now()
	lt.obs.LeaseQueued(1)
	if a.Universal {
		// Universal barriers (checkpoints, repository swaps) stall until the
		// whole system drains; surfacing how many are stalled — and for how
		// long, via the lease-wait histogram — is the signal that tells an
		// operator compaction cadence is fighting live traffic.
		lt.obs.UniversalQueued(1)
	}
	l := &execLease{access: a, ready: make(chan struct{})}
	lt.mu.Lock()
	if lt.inflight == nil {
		lt.inflight = make(map[*execLease]struct{})
	}
	lt.waiting = append(lt.waiting, l)
	lt.promote()
	lt.mu.Unlock()
	<-l.ready
	lt.obs.LeaseQueued(-1)
	if a.Universal {
		lt.obs.UniversalQueued(-1)
	}
	lt.obs.LeaseAdmitted(1)
	lt.obs.ObserveLeaseWait(time.Since(start))
	return l
}

// release returns a lease and admits any now-eligible waiters.
func (lt *leaseTable) release(l *execLease) {
	lt.mu.Lock()
	delete(lt.inflight, l)
	lt.promote()
	lt.mu.Unlock()
	lt.obs.LeaseAdmitted(-1)
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

// inflightCount reports how many leases are currently held (tests and
// metrics).
func (lt *leaseTable) inflightCount() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.inflight)
}
