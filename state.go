package restore

import (
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
)

// SaveRepository persists the repository (plans, filenames, statistics) as
// JSON, the §6.2 "table" of stored job outputs. It takes a universal lease
// so the snapshot never interleaves with a half-registered query.
func (s *System) SaveRepository(w io.Writer) error {
	return s.Quiesce(func() error { return s.repo.Load().Save(w) })
}

// Quiesce runs fn under a universal (write-set-universal) lease — the drain
// barrier: every in-flight execution completes first and no new mutating
// operation is admitted until fn returns. The persistence layer uses it for
// compaction (snapshot + WAL truncation), where the snapshot pair, the log
// rotation, and the orphan sweep must all observe the same quiescent state.
// fn must not call Execute/ExecutePrepared or any other lease-taking method
// on the same System — that would self-deadlock.
func (s *System) Quiesce(fn func() error) error {
	lease := s.leases.acquire(UniversalAccess())
	defer s.leases.release(lease)
	return fn()
}

// SaveState persists the repository and the full DFS (data, schemas, file
// versions) as one consistent snapshot pair, for the daemon's durable-state
// directory. It runs under Quiesce, so the pair can never capture a torn
// DFS (a file created but not yet committed) or a repository entry whose
// output file missed the snapshot.
func (s *System) SaveState(repoW, dfsW io.Writer) error {
	return s.Quiesce(func() error {
		if err := s.repo.Load().Save(repoW); err != nil {
			return err
		}
		return s.fs.Export(dfsW)
	})
}

// LoadRepositoryFrom replaces the repository with one previously saved by
// SaveRepository. The DFS must already contain the referenced output files
// (a mismatch is caught by Rule-4 eviction on the next query).
func (s *System) LoadRepositoryFrom(r io.Reader) error {
	repo, err := core.LoadRepository(r)
	if err != nil {
		return err
	}
	s.AdoptRepository(repo)
	return nil
}

// AdoptRepository installs repo as the system's repository under a
// universal lease and advances the workflow/namespace counters past
// everything the repository and current DFS reference. The recovery path
// uses it after replaying the write-ahead log into a loaded repository;
// passing the system's current repository is allowed and just re-advances
// the counters. Any journal attached to the previous repository is NOT
// carried over — re-attach with Repository().SetJournal afterwards.
func (s *System) AdoptRepository(repo *core.Repository) {
	lease := s.leases.acquire(UniversalAccess())
	defer s.leases.release(lease)
	s.repo.Store(repo)
	s.selector.Repo = repo
	s.advanceCounters(repo)
	// The adopted repository may reference files the mutation feed never saw
	// change (or that are simply missing); re-validate everything once.
	s.fullSweep.Store(true)
}

// advanceCounters pushes the workflow-sequence, compile-namespace, and
// sub-job-path counters past everything the loaded repository and current
// DFS have seen, so a restarted system never reuses a restore/tmp/qN or
// restore/sub/sN namespace that a persisted entry still references.
func (s *System) advanceCounters(repo *core.Repository) {
	var maxSeq, maxPrep, maxSub int64
	for _, e := range repo.All() {
		if e.CreatedSeq > maxSeq {
			maxSeq = e.CreatedSeq
		}
		if e.LastUsedSeq > maxSeq {
			maxSeq = e.LastUsedSeq
		}
	}
	for _, p := range s.fs.List("restore/") {
		if n, ok := pathCounter(p, "restore/tmp/q"); ok && n > maxPrep {
			maxPrep = n
		}
		if n, ok := pathCounter(p, "restore/sub/s"); ok && n > maxSub {
			maxSub = n
		}
	}
	advanceAtomic(&s.seq, maxSeq)
	advanceAtomic(&s.prep, maxPrep)
	advanceAtomic(&s.subPath, maxSub)
}

// advanceAtomic raises v to at least min. CAS loop, not load-compare-store:
// Prepare bumps these counters lock-free, and a plain Store could roll back
// a value another goroutine just claimed, handing two queries the same
// namespace.
func advanceAtomic(v *atomic.Int64, min int64) {
	for {
		cur := v.Load()
		if min <= cur || v.CompareAndSwap(cur, min) {
			return
		}
	}
}

// pathCounter extracts N from prefix+"N" or prefix+"N/...".
func pathCounter(p, prefix string) (int64, bool) {
	rest, ok := strings.CutPrefix(p, prefix)
	if !ok {
		return 0, false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
