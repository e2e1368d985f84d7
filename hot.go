package restore

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TryServeStored is the admission-time result fast path: it probes whether
// p is answerable entirely from fresh stored outputs and, if so, serves it
// without taking any execution lease, touching the scheduler, or running
// the engine — the repeat query pays index-probe plus read cost instead of
// execution cost.
//
// Every matched entry must be pin-time fresh (core.EntryFresh: inputs exist
// at their recorded versions, the stored file exists at its recorded
// version). Repository-owned entries (Entry.OwnsFile) are immutable and
// eviction-proof while pinned; user-named stored outputs (the
// WithRegisterFinalOutputs mode) can be overwritten by a concurrent leased
// writer the fast path holds no lease against, so they are admitted only
// when the OutputVersion guard is live (versions recorded and checking on)
// and re-validated after the read — DFS versions are globally monotonic, so
// recorded-version-before == recorded-version-after proves no overwrite
// intersected the read. Matched entries stay pinned while read (invoked
// with the built Result, rows still protected from eviction) and are
// unpinned before returning; usage statistics and the reuse counters commit
// only when the serve succeeds, so abandoned probes perturb no eviction
// decisions. ok=false — no fresh whole-query match, or read returned an
// error — means the caller must fall back to ExecutePrepared; a
// concurrently evicted entry simply fails its pin or freshness check and
// lands there too, never serving deleted bytes.
//
// Consistency: no lease is held, so a serve is linearized at its pin-time
// freshness check — equivalent to the query having executed just before any
// concurrent upload landed, exactly as a leased execution admitted first
// would have been.
func (s *System) TryServeStored(p *Prepared, tr *obs.Trace, read func(*Result) error) (*Result, bool) {
	if !s.reuse {
		return nil, false
	}
	t := time.Now()
	repo := s.repo.Load()
	var est core.EvictStats
	fsv, ok, err := core.ProbeWholeQuery(p.workflow, repo, func(e *core.Entry) bool {
		// A user-named stored output without a live OutputVersion guard
		// (versions off, or a pre-version persisted entry) cannot be served
		// leaselessly: an overwrite would be undetectable.
		if !e.OwnsFile && (!s.selector.Policy.CheckInputVersions || e.OutputVersion == 0) {
			return false
		}
		return s.fresh(e, &est)
	})
	ok = ok && err == nil
	var res *Result
	if ok {
		res = &Result{Seq: s.seq.Add(1), Rewrites: fsv.Rewrites}
		// A fully collapsed workflow aliases every store path; if that
		// invariant ever breaks, fall back rather than serve a partial
		// result.
		res.Outputs, ok = resolveOutputs(p.requested, fsv.Aliases)
	}
	// The probe is the hot span; the pinned read is timed by the caller as
	// its rows stage.
	s.observe(tr, obs.StageHot, t)
	if ok && read != nil {
		ok = read(res) == nil
	}
	if ok {
		ok = s.outputsUnchanged(repo, fsv.Uses)
	}
	if !ok {
		if fsv != nil {
			repo.Unpin(fsv.Pinned)
			s.stats.RecordMatchWork(fsv.Match)
		}
		s.stats.RecordEviction(est)
		s.stats.RecordFastPath(false)
		return nil, false
	}
	// Commit: the serve happened. Usage statistics feed the Rule-3 eviction
	// window; retention notes keep recently re-requested outputs alive.
	for _, id := range fsv.Uses {
		repo.MarkUsed(id, res.Seq)
	}
	repo.Unpin(fsv.Pinned)
	s.commitQuery(repo, p, res, core.QueryStats{Evict: est, Match: fsv.Match})
	s.stats.RecordFastPath(true)
	return res, true
}

// outputsUnchanged re-validates, after the read, the output versions of the
// user-named entries a serve used. Pins shield owned files from eviction,
// not user-named files from a concurrent leased overwrite. The DFS version
// counter is globally monotonic, so an unchanged recorded version brackets
// the read — no overwrite (whose Create bumps the version before any new
// byte is visible) intersected it. A moved version means the bytes just
// read may mix states: the entry is queued for eviction and the serve must
// fall back to a leased execution.
func (s *System) outputsUnchanged(repo *core.Repository, uses []string) bool {
	for _, id := range uses {
		e := repo.Get(id)
		if e == nil || e.OwnsFile {
			continue
		}
		if v, err := s.fs.Version(e.OutputPath); err != nil || v != e.OutputVersion {
			s.selector.NoteStale(id)
			return false
		}
	}
	return true
}
