package restore

import "repro/internal/core"

// fresh is the pin-time Rule-4 guard shared by the rewriter (leased
// executions) and the fast path: with per-query eviction driven by the DFS
// mutation feed, this check — not a pre-match sweep — is what guarantees a
// modified input is never answered from old results, because a concurrent
// query may have consumed the feed batch that would have evicted the entry,
// leaving it present but stale. A stale entry is queued so the next indexed
// eviction pass removes it.
func (s *System) fresh(e *core.Entry, st *core.EvictStats) bool {
	if core.EntryFresh(s.fs, e, s.selector.Policy.CheckInputVersions, st) {
		return true
	}
	s.selector.NoteStale(e.ID)
	return false
}

// evict runs one eviction pass at seq: the Rule-4 pass — the naive full
// sweep when full is set or a repository swap requested one, the
// mutation-feed-indexed pass otherwise — then the Rule-3 window and size
// budget, then the cascade fixpoint. An evicted entry's deleted file marks
// the feed, so each cascade round touches only the entries reading the
// paths the previous round deleted, and the loop stops as soon as nothing
// relevant was evicted (no full re-scans). Per-query eviction work thus
// scales with what changed, not with repository size. Delete failures are
// counted in st, never returned: they must not fail the triggering query.
func (s *System) evict(seq int64, full bool, st *core.EvictStats) []string {
	var evicted []string
	// The feed is drained either way: a sweep re-validates every entry, so
	// the pending batch is subsumed by it. No repository swap can interleave:
	// AdoptRepository takes a universal lease, and every caller holds one.
	dirty := s.fs.TakeEvictionDirty()
	if s.fullSweep.CompareAndSwap(true, false) || full {
		evicted, _ = s.selector.Evict(seq, st)
	} else if len(dirty) > 0 || s.selector.PendingWork() {
		evicted, _ = s.selector.EvictPaths(seq, dirty, st)
	}
	wb, _ := s.selector.EvictWindowBudget(seq, st)
	evicted = append(evicted, wb...)
	for last := evicted; len(last) > 0; {
		dirty := s.fs.TakeEvictionDirty()
		if len(dirty) == 0 {
			break
		}
		last, _ = s.selector.EvictPaths(seq, dirty, st)
		evicted = append(evicted, last...)
	}
	return evicted
}

// GCReport summarizes one CollectGarbage pass.
type GCReport struct {
	// Evicted lists the repository entries the pass removed (Rules 3/4,
	// size budget, and cascades).
	Evicted []string
	// Retired lists the user-named outputs the retention policy deleted.
	Retired []string
	// Stats counts the pass's staleness scans, DFS probes, and delete
	// failures.
	Stats core.EvictStats
}

// CollectGarbage runs one repository growth-management pass: the eviction
// pass of every query with the full (reference) Rule-4 sweep, then — when
// the policy enables it — user-output retention. The restored daemon's GC
// loop calls it on a cadence so the per-query path stays index-driven;
// library users running long query streams with a retention policy call it
// themselves.
//
// Leasing: eviction needs no path lease (pinned entries are never removed),
// but retiring a user-named out/... file must not race an in-flight query
// reading it, so the pass takes a write lease on exactly the retention
// candidates — disjoint queries keep executing throughout, and the lease
// also keeps the pass from racing a universal repository swap. Delete
// failures are counted in the report's Stats, not returned.
func (s *System) CollectGarbage() GCReport {
	nowSeq := s.seq.Load()
	// Candidates are computed from the atomically-loaded repository
	// pointer — no lease is held yet, and reading s.selector.Repo here
	// would race a concurrent AdoptRepository swap. RetireOutputs
	// re-validates every candidate under the lease, so a set computed
	// against a repository that is swapped out before the lease grant is
	// harmless (the stale paths simply fail re-validation).
	cands := core.RetentionCandidates(s.repo.Load(), s.selector.Policy, nowSeq)
	lease := s.leases.acquire(AccessSet{Writes: cands})
	defer s.leases.release(lease)

	var rep GCReport
	rep.Evicted = s.evict(nowSeq, true, &rep.Stats)
	rep.Retired, _ = s.selector.RetireOutputs(nowSeq, cands, &rep.Stats)
	s.stats.RecordEviction(rep.Stats)
	return rep
}
