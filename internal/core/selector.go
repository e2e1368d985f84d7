package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/physical"
	"repro/internal/types"
)

// Policy configures the enumerated sub-job selector (§5). The paper's
// experiments store every candidate (KeepAll); the rules are available for
// deployments where storage or repository scan time matters.
type Policy struct {
	// KeepAll stores every candidate regardless of the rules below.
	KeepAll bool
	// RequireSizeReduction is Rule 1: keep only candidates whose output is
	// smaller than their input.
	RequireSizeReduction bool
	// RequireTimeSaving is Rule 2: keep only candidates whose stored output
	// can be read back faster than re-executing the job (Equation 1).
	RequireTimeSaving bool
	// EvictionWindow is Rule 3: evict entries not reused within this many
	// workflows. Zero disables the rule.
	EvictionWindow int64
	// CheckInputVersions is Rule 4: evict entries whose inputs were deleted
	// or modified.
	CheckInputVersions bool
	// RepoBudgetBytes bounds the bytes of repository-owned stored outputs
	// (OwnsFile entries — the files eviction can actually reclaim): once
	// exceeded, owned entries are evicted least-recently-used-by-sequence
	// first until the repository fits, skipping entries pinned by in-flight
	// executions. User-named entries occupy no reclaimable storage and are
	// neither counted nor evicted by the budget. Zero disables it.
	RepoBudgetBytes int64
	// OutputRetention is the paper's keep-results-for-N mode for user-named
	// outputs: a tracked out/... file is retired once it has not been
	// rewritten or re-requested for this many workflows AND no live
	// repository entry references it. Enforced by RetireOutputs (the GC
	// pass), not the per-query path — retiring a user file needs a write
	// lease on it. Zero keeps user outputs forever.
	OutputRetention int64
}

// DefaultPolicy is the paper's experimental configuration: keep everything,
// but still honor Rule 4 so stale results are never served.
func DefaultPolicy() Policy {
	return Policy{KeepAll: true, CheckInputVersions: true}
}

// SelectorFS is the slice of the DFS the selector needs: version probes for
// Rule 4, existence checks, and owned-file deletion. *dfs.FS implements it;
// tests substitute fault-injecting wrappers.
type SelectorFS interface {
	Version(path string) (uint64, error)
	Exists(path string) bool
	Delete(path string) error
}

// EvictStats counts eviction-path work, mirroring MatchStats for the match
// path. A scan is one entry examined for staleness; a probe is one DFS
// version or existence lookup. The per-query indexed path keeps both
// proportional to the mutated paths; the naive full sweep's grow with the
// repository (TestEvictPathsScansOnlyTouchedEntries pins the indexed
// counts, BenchmarkEvict{Indexed,Naive} time both). Delete failures are
// counted, not surfaced as query errors.
type EvictStats struct {
	Scans        int64 `json:"scans"`
	Probes       int64 `json:"probes"`
	Evicted      int64 `json:"evicted"`
	DeleteErrors int64 `json:"deleteErrors"`
	// RequeueRetired counts previously-failed owned-file deletes that a
	// later pass (or the compaction orphan sweep) finally retired.
	RequeueRetired int64 `json:"requeueRetired"`
	// OutputsRetired counts user-named outputs deleted by retention.
	OutputsRetired int64 `json:"outputsRetired"`
}

// Add folds another accumulation into s.
func (s *EvictStats) Add(o EvictStats) {
	s.Scans += o.Scans
	s.Probes += o.Probes
	s.Evicted += o.Evicted
	s.DeleteErrors += o.DeleteErrors
	s.RequeueRetired += o.RequeueRetired
	s.OutputsRetired += o.OutputsRetired
}

// Candidate is a materialized output considered for the repository after a
// workflow executed.
type Candidate struct {
	Plan       *physical.Plan
	OutputPath string
	Schema     types.Schema

	InputBytes  int64
	OutputBytes int64
	ExecTime    time.Duration
	// OwnsFile marks files the repository manages (temps and injected
	// sub-job outputs): rejected or evicted candidates are deleted.
	OwnsFile bool
}

// Selector decides which candidates enter the repository and which stored
// entries to evict. All methods are safe for concurrent use (the deferred-
// delete and recheck queues have their own lock; everything else goes
// through the Repository's).
type Selector struct {
	Repo    *Repository
	FS      SelectorFS
	Cluster *cluster.Config
	Policy  Policy

	mu sync.Mutex
	// deferred holds repository-owned files whose entry is already evicted
	// but whose DFS delete failed: they are retried on every eviction pass
	// (and the compaction orphan sweep retires them too), so a transient
	// delete failure never leaks a file permanently.
	deferred map[string]struct{}
	// recheck holds entry IDs judged stale but skipped by RemoveIfIdle
	// (pinned, or refreshed since the staleness snapshot). The indexed path
	// re-examines them on its next pass — without this, an entry that was
	// pinned exactly when its mutation batch was consumed would outlive its
	// staleness until the next full sweep.
	recheck map[string]struct{}
}

// Consider applies Rules 1–2 to a candidate. When the candidate is accepted
// it becomes a repository entry stamped with the current sequence number; a
// rejected repository-owned file is deleted from the DFS.
func (s *Selector) Consider(c Candidate, seq int64) (*Entry, bool, error) {
	if !s.Policy.KeepAll {
		if s.Policy.RequireSizeReduction && c.OutputBytes >= c.InputBytes {
			return nil, false, s.discard(c)
		}
		if s.Policy.RequireTimeSaving && s.readBackTime(c.OutputBytes) >= c.ExecTime {
			return nil, false, s.discard(c)
		}
	}
	versions := make(map[string]uint64)
	for _, load := range c.Plan.Sources() {
		v, err := s.FS.Version(load.Path)
		if err != nil {
			// Input vanished between execution and selection; the candidate
			// can never be validated, so discard it.
			return nil, false, s.discard(c)
		}
		versions[load.Path] = v
	}
	outV, err := s.FS.Version(c.OutputPath)
	if err != nil {
		// The freshly written output vanished already; nothing to store.
		return nil, false, s.discard(c)
	}
	entry := &Entry{
		Plan:          c.Plan,
		OutputPath:    c.OutputPath,
		Schema:        c.Schema,
		InputBytes:    c.InputBytes,
		OutputBytes:   c.OutputBytes,
		ExecTime:      c.ExecTime,
		CreatedSeq:    seq,
		LastUsedSeq:   seq,
		InputVersions: versions,
		OutputVersion: outV,
		OwnsFile:      c.OwnsFile,
	}
	prev, added, err := s.Repo.Add(entry)
	if err != nil {
		return nil, false, err
	}
	if !added {
		// An identical plan is already stored; this candidate's file is
		// redundant unless it IS the stored file.
		if c.OwnsFile && c.OutputPath != prev.OutputPath {
			if err := s.discard(c); err != nil {
				return prev, false, err
			}
		}
		return prev, false, nil
	}
	return entry, true, nil
}

// discard deletes a rejected candidate's file when the repository owns it.
func (s *Selector) discard(c Candidate) error {
	if !c.OwnsFile {
		return nil
	}
	if err := s.FS.Delete(c.OutputPath); err != nil {
		return fmt.Errorf("core: discard candidate %s: %w", c.OutputPath, err)
	}
	return nil
}

// readBackTime estimates how long a future workflow spends loading the
// stored output (a map-only scan of the file).
func (s *Selector) readBackTime(bytes int64) time.Duration {
	return s.Cluster.Simulate(cluster.JobStats{InputBytes: bytes}).Total
}

// EntryFresh reports whether an entry's Rule-4 invariants still hold: its
// stored output exists, and (when checkVersions) every input and the output
// itself are at the versions snapshotted when the entry was stored. The
// rewriter's Guard calls it at pin time — with per-query eviction demoted to
// the mutation feed and the background GC loop, this check is what
// guarantees a modified input is never answered from old results, no matter
// which concurrent query consumed the feed batch that would have evicted
// the entry.
func EntryFresh(fs SelectorFS, e *Entry, checkVersions bool, st *EvictStats) bool {
	return !rule4Stale(fs, e, checkVersions, st)
}

// rule4Stale implements the Rule-4 staleness predicate shared by the naive
// sweep, the indexed pass, and the pin-time freshness guard.
func rule4Stale(fs SelectorFS, e *Entry, checkVersions bool, st *EvictStats) bool {
	if checkVersions {
		for path, v := range e.InputVersions {
			st.Probes++
			cur, err := fs.Version(path)
			if err != nil || cur != v {
				return true
			}
		}
		// The stored output itself may have been recycled: user-named paths
		// (OwnsFile=false) can be overwritten by a later query or upload,
		// after which the entry's plan no longer describes the file's
		// contents. 0 = persisted before output versions existed.
		if e.OutputVersion != 0 {
			st.Probes++
			cur, err := fs.Version(e.OutputPath)
			// A successful version probe also proves existence, so the
			// Exists check below would be a redundant second probe.
			return err != nil || cur != e.OutputVersion
		}
	}
	// An entry whose stored output vanished from the DFS can never be
	// reused safely, whatever the policy says. This matters once
	// repositories persist across processes: a repository loaded without
	// its DFS snapshot must shed such entries instead of rewriting jobs
	// to load missing files.
	st.Probes++
	return !fs.Exists(e.OutputPath)
}

// staleEntry applies the full staleness predicate of the naive sweep: the
// Rule-3 window (when checkWindow) and Rule 4 + output existence.
func (s *Selector) staleEntry(e *Entry, nowSeq int64, checkWindow bool, st *EvictStats) bool {
	if checkWindow {
		if w := s.Policy.EvictionWindow; w > 0 {
			last := e.LastUsedSeq
			if e.CreatedSeq > last {
				last = e.CreatedSeq
			}
			if nowSeq-last > w {
				return true
			}
		}
	}
	return rule4Stale(s.FS, e, s.Policy.CheckInputVersions, st)
}

// removeEntry evicts one stale entry and deletes its owned file. A failed
// delete is counted, aggregated into errs, and the file re-queued for a
// later pass — never surfaced as the caller's failure, and never leaked:
// the entry is already out of the index, so the compaction orphan sweep
// would reclaim the file even if every retry kept failing. When
// queueOnSkip, entries skipped by RemoveIfIdle (pinned, or refreshed since
// the staleness snapshot) are queued for recheck so the indexed Rule-4
// path revisits them; the window/budget callers pass false — their
// policies are re-applied on every pass anyway, and the Rule-4-only
// recheck could not act on them.
func (s *Selector) removeEntry(id string, lastUsedSeq int64, queueOnSkip bool, st *EvictStats, errs *[]error) (string, bool) {
	removed := s.Repo.RemoveIfIdle(id, lastUsedSeq)
	if removed == nil {
		if queueOnSkip {
			s.queueRecheck(id)
		}
		return "", false
	}
	st.Evicted++
	if removed.OwnsFile && s.FS.Exists(removed.OutputPath) {
		if err := s.FS.Delete(removed.OutputPath); err != nil {
			st.DeleteErrors++
			s.deferDelete(removed.OutputPath)
			*errs = append(*errs, fmt.Errorf("core: evict %s: delete %s: %w", removed.ID, removed.OutputPath, err))
		}
	}
	return removed.ID, true
}

// Evict applies Rules 3 and 4 at the given sequence over the whole
// repository, removing stale or invalidated entries (and their repository-
// owned files). It returns the IDs of the evicted entries; the error is the
// errors.Join of any owned-file delete failures, which never abort the
// sweep (the files are re-queued — see removeEntry). Safe for concurrent
// use: entries pinned by an in-flight execution are skipped (RemoveIfIdle),
// and when several executions race to evict the same entry exactly one wins
// the removal and deletes the file.
//
// This is the reference sweep: the per-query path runs the index-driven
// EvictPaths/EvictWindowBudget instead, and the property tests hold the two
// equivalent. st may be nil.
func (s *Selector) Evict(nowSeq int64, st *EvictStats) ([]string, error) {
	if st == nil {
		st = &EvictStats{}
	}
	var errs []error
	s.retryDeferred(st, &errs)
	// The sweep re-validates everything, so pending rechecks are subsumed;
	// draining them here keeps the next indexed pass from re-probing
	// entries this sweep just cleared.
	s.takeRecheck()
	var evicted []string
	// Deep-copied snapshot, not All(): staleness reads LastUsedSeq, which a
	// concurrent execution's MarkUsed mutates under the repository lock.
	for _, e := range s.Repo.Snapshot() {
		st.Scans++
		if !s.staleEntry(e, nowSeq, true, st) {
			continue
		}
		if id, ok := s.removeEntry(e.ID, e.LastUsedSeq, true, st, &errs); ok {
			evicted = append(evicted, id)
		}
	}
	return evicted, errors.Join(errs...)
}

// EvictPaths applies Rule 4 (and the output-existence check) only to the
// entries whose input set or stored output touches one of the given mutated
// paths — the indexed counterpart of Evict's full scan, driven by the DFS
// mutation feed. It also retries deferred deletes and drains the recheck
// queue. The Rule-3 window and the size budget are sequence-driven, not
// mutation-driven, and are handled by EvictWindowBudget. st may be nil.
func (s *Selector) EvictPaths(nowSeq int64, paths []string, st *EvictStats) ([]string, error) {
	if st == nil {
		st = &EvictStats{}
	}
	var errs []error
	s.retryDeferred(st, &errs)
	cands := s.Repo.EntriesTouching(paths)
	if ids := s.takeRecheck(); len(ids) > 0 {
		seen := make(map[string]bool, len(cands))
		for _, e := range cands {
			seen[e.ID] = true
		}
		for _, id := range ids {
			if seen[id] {
				continue
			}
			if e := s.Repo.CloneOf(id); e != nil {
				cands = append(cands, e)
			}
		}
	}
	var evicted []string
	for _, e := range cands {
		st.Scans++
		if !s.staleEntry(e, nowSeq, false, st) {
			continue
		}
		if id, ok := s.removeEntry(e.ID, e.LastUsedSeq, true, st, &errs); ok {
			evicted = append(evicted, id)
		}
	}
	return evicted, errors.Join(errs...)
}

// EvictWindowBudget applies the sequence-driven policies: the Rule-3 window
// and the size budget. Both passes scan only the repository's in-memory
// usage metadata (AppendUsage — no DFS probes), so they stay cheap even
// per query. Budget eviction removes least-recently-used-by-sequence
// entries until total stored bytes fit; entries pinned by in-flight
// executions are skipped by RemoveIfIdle and never evicted. st may be nil.
func (s *Selector) EvictWindowBudget(nowSeq int64, st *EvictStats) ([]string, error) {
	w, budget := s.Policy.EvictionWindow, s.Policy.RepoBudgetBytes
	if w <= 0 && budget <= 0 {
		return nil, nil
	}
	if st == nil {
		st = &EvictStats{}
	}
	var errs []error
	var evicted []string
	gone := make(map[string]bool)
	usp := usagePool.Get().(*[]EntryUsage)
	defer putUsage(usp)
	us := s.Repo.AppendUsage((*usp)[:0])
	*usp = us
	if w > 0 {
		for _, u := range us {
			st.Scans++
			if nowSeq-u.Touch() <= w {
				continue
			}
			if id, ok := s.removeEntry(u.ID, u.LastUsedSeq, false, st, &errs); ok {
				evicted = append(evicted, id)
				gone[id] = true
			}
		}
	}
	if budget > 0 {
		// Only repository-owned outputs occupy reclaimable storage;
		// evicting a user-named entry deletes no file, so the budget
		// neither counts nor evicts those. Entries the window pass just
		// removed are filtered from the shared snapshot.
		owned := us[:0]
		for _, u := range us {
			if u.OwnsFile && !gone[u.ID] {
				owned = append(owned, u)
			}
		}
		slices.SortFunc(owned, func(a, b EntryUsage) int {
			if c := cmp.Compare(a.Touch(), b.Touch()); c != 0 {
				return c
			}
			return strings.Compare(a.ID, b.ID)
		})
		var total int64
		for _, u := range owned {
			total += u.OutputBytes
		}
		for _, u := range owned {
			if total <= budget {
				break
			}
			st.Scans++
			if id, ok := s.removeEntry(u.ID, u.LastUsedSeq, false, st, &errs); ok {
				evicted = append(evicted, id)
				total -= u.OutputBytes
			}
			// A skipped (pinned/refreshed) entry keeps its bytes; the pass
			// moves on to the next-least-recently-used instead of waiting.
		}
	}
	return evicted, errors.Join(errs...)
}

// usagePool holds the usage buffers EvictWindowBudget scans, so a pass
// per query does not copy the repository's metadata into a fresh slice.
// Concurrent passes each take their own buffer.
var usagePool = sync.Pool{New: func() any { return new([]EntryUsage) }}

// putUsage clears a usage buffer, so it pins no entry ID or path, and
// returns it to usagePool.
func putUsage(p *[]EntryUsage) {
	clear(*p)
	*p = (*p)[:0]
	usagePool.Put(p)
}

// RetentionCandidates returns the tracked user-named outputs the §5
// retention mode would retire from repo at nowSeq: older than the policy's
// retention window and referenced by no live entry. Read-only — the caller
// acquires write leases on the result before letting Selector.RetireOutputs
// delete anything (which re-validates every candidate under the lease, so
// a stale candidate set is harmless). A free function over an explicit
// repository: the System calls it with its atomically-loaded repository
// pointer before holding any lease, where reading Selector.Repo would race
// a concurrent AdoptRepository swap.
func RetentionCandidates(repo *Repository, pol Policy, nowSeq int64) []string {
	r := pol.OutputRetention
	if r <= 0 {
		return nil
	}
	var out []string
	for _, rec := range repo.TrackedOutputs() {
		if nowSeq-rec.Seq <= r {
			continue
		}
		if repo.ReferencesPath(rec.Path) {
			continue
		}
		out = append(out, rec.Path)
	}
	return out
}

// RetireOutputs deletes expired tracked outputs, restricted to the allowed
// set (the paths the caller holds write leases on). Every deletion is
// re-validated under the lease: still expired (a concurrent query may have
// refreshed it), still unreferenced (the caller's sweep may have evicted
// the referencing entry after candidacy — such paths wait for the next
// pass), and still at the tracked version (a mismatch means an upload
// overwrote the path; the file is user data now and only the tracking is
// dropped). A failed delete stays tracked and is retried next pass. st may
// be nil.
func (s *Selector) RetireOutputs(nowSeq int64, allowed []string, st *EvictStats) ([]string, error) {
	if s.Policy.OutputRetention <= 0 || len(allowed) == 0 {
		return nil, nil
	}
	if st == nil {
		st = &EvictStats{}
	}
	allow := make(map[string]bool, len(allowed))
	for _, p := range allowed {
		allow[p] = true
	}
	var retired []string
	var errs []error
	for _, rec := range s.Repo.TrackedOutputs() {
		if !allow[rec.Path] {
			continue
		}
		if nowSeq-rec.Seq <= s.Policy.OutputRetention || s.Repo.ReferencesPath(rec.Path) {
			continue
		}
		st.Probes++
		cur, err := s.FS.Version(rec.Path)
		if err != nil {
			// Already gone; drop the tracking.
			s.Repo.ForgetOutput(rec.Path)
			continue
		}
		if cur != rec.Version {
			s.Repo.ForgetOutput(rec.Path)
			continue
		}
		if err := s.FS.Delete(rec.Path); err != nil {
			st.DeleteErrors++
			errs = append(errs, fmt.Errorf("core: retire %s: %w", rec.Path, err))
			continue
		}
		s.Repo.ForgetOutput(rec.Path)
		st.OutputsRetired++
		retired = append(retired, rec.Path)
	}
	return retired, errors.Join(errs...)
}

// PendingWork reports whether the selector has deferred deletes or recheck
// entries queued — the per-query path runs an indexed pass even with an
// empty mutation batch while this holds.
func (s *Selector) PendingWork() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.deferred) > 0 || len(s.recheck) > 0
}

// DeferredDeletes returns the owned files currently awaiting a delete
// retry, sorted (tests and metrics).
func (s *Selector) DeferredDeletes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.deferred))
	for p := range s.deferred {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// deferDelete queues an owned file whose delete failed for retry.
func (s *Selector) deferDelete(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deferred == nil {
		s.deferred = make(map[string]struct{})
	}
	s.deferred[path] = struct{}{}
}

// NoteStale queues an entry observed stale outside an eviction pass (the
// System's pin-time freshness guard) so the next indexed pass evicts it.
func (s *Selector) NoteStale(id string) { s.queueRecheck(id) }

// queueRecheck queues an entry judged stale but skipped by RemoveIfIdle.
func (s *Selector) queueRecheck(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recheck == nil {
		s.recheck = make(map[string]struct{})
	}
	s.recheck[id] = struct{}{}
}

// takeRecheck drains the recheck queue.
func (s *Selector) takeRecheck() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.recheck) == 0 {
		return nil
	}
	out := make([]string, 0, len(s.recheck))
	for id := range s.recheck {
		out = append(out, id)
	}
	s.recheck = nil
	sort.Strings(out)
	return out
}

// retryDeferred re-attempts previously-failed owned-file deletes. A path
// that vanished in the meantime (the compaction orphan sweep reclaimed it)
// or succeeds now is retired from the queue; a path a live entry references
// again is dropped without deleting (minted-once namespaces make this
// impossible in practice, but the invariant is cheap to keep).
func (s *Selector) retryDeferred(st *EvictStats, errs *[]error) {
	s.mu.Lock()
	if len(s.deferred) == 0 {
		s.mu.Unlock()
		return
	}
	paths := make([]string, 0, len(s.deferred))
	for p := range s.deferred {
		paths = append(paths, p)
	}
	s.mu.Unlock()
	sort.Strings(paths)
	for _, p := range paths {
		if s.Repo.ReferencesPath(p) {
			s.dropDeferred(p)
			continue
		}
		if !s.FS.Exists(p) {
			s.dropDeferred(p)
			st.RequeueRetired++
			continue
		}
		if err := s.FS.Delete(p); err != nil {
			st.DeleteErrors++
			*errs = append(*errs, fmt.Errorf("core: retry deferred delete %s: %w", p, err))
			continue
		}
		s.dropDeferred(p)
		st.RequeueRetired++
	}
}

func (s *Selector) dropDeferred(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.deferred, path)
}
