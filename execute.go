package restore

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/obs"
)

// JobReport describes one executed MapReduce job.
type JobReport struct {
	JobID         string
	InputBytes    int64
	ShuffleBytes  int64
	OutputBytes   int64
	InjectedBytes int64
	SimulatedTime time.Duration
}

// Result reports one executed query.
type Result struct {
	// Seq is the workflow sequence number assigned when the query was
	// admitted for execution. Sequence numbers are unique, and two
	// conflicting queries (which execute one after the other) always see
	// them in execution order; concurrently admitted disjoint queries may
	// draw theirs in either order.
	Seq int64
	// Outputs maps each requested store path to the DFS file that holds
	// its data — the path itself, or a stored repository file when the
	// producing job was eliminated by reuse.
	Outputs map[string]string
	// SimulatedTime is the Equation-1 workflow completion time on the
	// modeled cluster.
	SimulatedTime time.Duration
	// Rewrites lists the reuses applied by the plan matcher.
	Rewrites []core.RewriteInfo
	// Jobs reports the jobs that actually executed (possibly none).
	Jobs []JobReport
	// InjectedBytes totals the output of ReStore-injected Store operators
	// (the materialization overhead of §7.2).
	InjectedBytes int64
	// Registered counts new repository entries created by this query.
	Registered int
	// Evicted lists repository entries evicted after this query.
	Evicted []string
}

// Execute parses, compiles, rewrites, and runs one query, then updates the
// repository. It is the JobControlCompiler extension of §6.2. Safe for
// concurrent use: preparation runs in parallel, execution serializes.
func (s *System) Execute(src string) (*Result, error) {
	p, err := s.Prepare(src)
	if err != nil {
		return nil, err
	}
	return s.ExecutePrepared(p)
}

// ExecutePrepared runs a prepared query through eviction, rewrite,
// sub-job enumeration, the MapReduce engine, and repository registration.
// The mutating phases hold a path lease on the query's declared read/write
// sets: path-disjoint callers run fully in parallel, conflicting callers
// are admitted FIFO. Stored outputs the rewrite reuses are pinned until the
// execution finishes, so no concurrent eviction can delete them mid-run.
func (s *System) ExecutePrepared(p *Prepared) (*Result, error) {
	return s.ExecutePreparedTraced(p, nil, nil)
}

// ExecutePreparedTraced is ExecutePrepared with per-phase telemetry and the
// read contract of TryServeStored. Each phase's duration is recorded as a
// span on tr and as a sample in the installed observer's stage histograms
// (a nil tr records registry samples only; a nil observer trace spans only).
// Phases that error out leave no span — the failure surfaces through the
// error, not the trace. A non-nil read is invoked with the finished Result
// while the execution's lease and pins are still held: no conflicting
// writer is in flight and no eviction can delete a stored file the outputs
// alias, so whatever read loads is exactly what this query produced. An
// error from read fails the call.
func (s *System) ExecutePreparedTraced(p *Prepared, tr *obs.Trace, read func(*Result) error) (*Result, error) {
	t := time.Now()
	lease := s.leases.acquire(p.access)
	defer s.leases.release(lease)
	// The lease-wait histogram (all acquirers) is recorded by the lease
	// table itself; this stage sample covers query executions only.
	s.observe(tr, obs.StageLease, t)

	// Swapping the repository takes a universal lease, so the one loaded
	// under this lease stays the live one until release.
	x := &execution{s: s, p: p, lease: lease, repo: s.repo.Load(), res: &Result{Seq: s.seq.Add(1)}}
	// The rewrite's pins are held until this call returns — through the
	// engine run, which loads the reused files, and through read, whose
	// outputs may alias them.
	defer func() { x.repo.Unpin(x.pinned) }()
	for _, ph := range executionPhases {
		t = time.Now()
		if err := ph.run(x); err != nil {
			return nil, err
		}
		s.observe(tr, ph.stage, t)
	}
	if read != nil {
		if err := read(x.res); err != nil {
			return nil, err
		}
	}
	return x.res, nil
}

// observe is the one stage helper: it closes a stage that began at start as
// a span on tr (nil-safe) and a sample in the installed observer's stage
// histogram, from a single clock read.
func (s *System) observe(tr *obs.Trace, stage obs.Stage, start time.Time) {
	s.obs.ObserveStage(stage, tr.ObserveSince(stage, start))
}

// executionPhases are the phases of a leased execution, in order, each
// timed as its own stage.
var executionPhases = []struct {
	stage obs.Stage
	run   func(*execution) error
}{
	{obs.StageEvict, (*execution).evict},
	{obs.StageMatch, (*execution).match},
	{obs.StagePlan, (*execution).plan},
	{obs.StageExecute, (*execution).execute},
	{obs.StageStore, (*execution).store},
}

// execution is the state one leased run hands from phase to phase.
type execution struct {
	s     *System
	p     *Prepared
	lease *execLease
	repo  *core.Repository
	res   *Result

	est    core.EvictStats // eviction and pin-time freshness work
	mstats core.MatchStats // matcher work
	pinned []string        // the rewrite's pins, released on return
	jobs   []*mapred.Job   // rewritten jobs; after plan, the final ones
	subs   []jobCandidate  // injected sub-jobs awaiting registration
	wf     *mapred.WorkflowResult
}

// jobCandidate is a repository candidate awaiting its job's execution
// statistics.
type jobCandidate struct {
	jobID string
	cand  core.Candidate
}

// evict is phase 0 (§5): evict stale or invalidated entries before
// matching. Owned-file delete failures are counted and the files re-queued
// (see Selector.removeEntry); they never fail this unrelated query.
func (x *execution) evict() error {
	x.res.Evicted = x.s.evict(x.res.Seq, false, &x.est)
	return nil
}

// match is phase 1 (§3): match and rewrite against the repository. The
// rewriter pins every reused entry, so a concurrent disjoint execution's
// eviction cannot delete it underneath this one.
func (x *execution) match() error {
	x.jobs = x.p.workflow.Jobs
	var aliases map[string]string
	if x.s.reuse {
		rw := &core.Rewriter{Repo: x.repo, Seq: x.res.Seq, Guard: x.guard}
		out, err := rw.RewriteWorkflow(x.p.workflow)
		if err != nil {
			return err
		}
		x.pinned, x.jobs, aliases, x.res.Rewrites, x.mstats = out.Pinned, out.Jobs, out.Aliases, out.Rewrites, out.Match
	}
	x.res.Outputs, _ = resolveOutputs(x.p.requested, aliases)
	return nil
}

// guard admits a matched entry for reuse. Pin-time freshness (System.fresh)
// is what guarantees a modified input is never answered from old results;
// the entry's inputs are loads of the matched plan region, covered by this
// execution's lease, so freshness established here holds through the run.
func (x *execution) guard(e *core.Entry) bool {
	if !x.s.fresh(e, &x.est) {
		return false
	}
	if e.OwnsFile {
		// Repository-owned files live in minted-once namespaces: nothing
		// ever rewrites them, and the pin blocks eviction.
		return true
	}
	// A user-named stored output can be overwritten by a concurrent
	// path-disjoint workflow that declared it as a write. Extend this
	// execution's lease with the read; if a conflicting writer is already
	// in flight, skip the reuse instead of racing it.
	return x.s.leases.extendReads(x.lease, e.OutputPath)
}

// plan is phase 2 (§4): enumerate sub-jobs and inject materialization
// points into clones of the rewritten jobs.
func (x *execution) plan() error {
	final := make([]*mapred.Job, 0, len(x.jobs))
	for _, job := range x.jobs {
		jp := job.Plan.Clone()
		injs, err := core.EnumerateSubJobs(jp, x.s.heuristic, func() string {
			return fmt.Sprintf("restore/sub/s%d", x.s.subPath.Add(1))
		})
		if err != nil {
			return err
		}
		nj, err := mapred.NewJob(job.ID, jp)
		if err != nil {
			return err
		}
		final = append(final, nj)
		for _, inj := range injs {
			x.subs = append(x.subs, jobCandidate{job.ID, core.Candidate{
				Plan:       inj.CandidatePlan,
				OutputPath: inj.Path,
				Schema:     inj.CandidatePlan.Sinks()[0].Schema,
				OwnsFile:   true,
			}})
		}
	}
	x.jobs = final
	return nil
}

// execute is phase 3: run the final jobs on the backend.
func (x *execution) execute() error {
	if len(x.jobs) == 0 {
		return nil
	}
	wf, err := x.s.backend.RunWorkflow(context.Background(), &mapred.Workflow{Jobs: x.jobs})
	if err != nil {
		return err
	}
	x.wf = wf
	x.res.SimulatedTime = wf.SimulatedTime
	x.res.InjectedBytes = wf.TotalInjectedBytes
	for _, id := range wf.Order {
		jr := wf.JobResults[id]
		x.res.Jobs = append(x.res.Jobs, JobReport{
			JobID:         id,
			InputBytes:    jr.Stats.InputBytes,
			ShuffleBytes:  jr.Stats.ShuffleBytes,
			OutputBytes:   jr.Stats.OutputBytes,
			InjectedBytes: jr.InjectedStoreBytes,
			SimulatedTime: jr.Times.Total,
		})
	}
	return nil
}

// store is phase 4 (§5): register candidates, then commit the query's
// retention notes and statistics.
func (x *execution) store() error {
	qs := core.QueryStats{JobsExecuted: len(x.jobs), Evict: x.est, SimulatedTime: x.res.SimulatedTime, Match: x.mstats}
	if x.s.register && x.wf != nil {
		var err error
		if qs.Registered, qs.Rejected, err = x.register(); err != nil {
			return err
		}
		x.res.Registered = qs.Registered
	}
	x.s.commitQuery(x.repo, x.p, x.res, qs)
	return nil
}

// register turns executed outputs into repository entries: every non-final
// primary store (workflow intermediates), every injected sub-job, and —
// when configured — the user-named outputs. It returns how many candidates
// entered the repository and how many the §5 keep rules (or a vanished
// input) rejected; duplicates of already-stored plans count as neither.
func (x *execution) register() (added, rejected int, err error) {
	var cands []jobCandidate
	for _, job := range x.jobs {
		for _, st := range job.Plan.Sinks() {
			owns := isSystemPath(st.Path)
			if st.Injected || !owns && !x.s.registerFinals {
				continue // injected stores register through x.subs
			}
			plan, err := core.WholeJobCandidate(job.Plan, st)
			if err != nil {
				return added, rejected, err
			}
			cands = append(cands, jobCandidate{job.ID, core.Candidate{Plan: plan, OutputPath: st.Path, Schema: st.Schema, OwnsFile: owns}})
		}
	}
	for _, jc := range append(cands, x.subs...) {
		jr := x.wf.JobResults[jc.jobID]
		if jr == nil {
			continue
		}
		c := jc.cand
		c.InputBytes, c.OutputBytes, c.ExecTime = jr.Stats.InputBytes, jr.StoreBytes[c.OutputPath], jr.Times.Total
		entry, ok, err := x.s.selector.Consider(c, x.res.Seq)
		if err != nil {
			return added, rejected, err
		}
		switch {
		case ok:
			added++
		case entry == nil:
			rejected++
		}
	}
	return added, rejected, nil
}

// isSystemPath reports whether the path is in ReStore's namespace (temps and
// sub-job outputs), i.e. the repository owns the file.
func isSystemPath(p string) bool {
	return len(p) >= 8 && p[:8] == "restore/"
}

// resolveOutputs maps each requested output to the DFS file holding its
// data: the stored file its eliminated producer was aliased to, else the
// path itself. allAliased reports whether every output was aliased — a
// fully collapsed workflow, which is what the fast path serves.
func resolveOutputs(requested []string, aliases map[string]string) (outputs map[string]string, allAliased bool) {
	outputs = make(map[string]string, len(requested))
	allAliased = true
	for _, out := range requested {
		actual, ok := aliases[out]
		if !ok {
			actual, allAliased = out, false
		}
		outputs[out] = actual
	}
	return outputs, allAliased
}

// commitQuery is the shared tail of an executed query and one served from
// stored results: retention notes, then the lifetime statistics.
//
// Every user-named requested output is noted for the §5 keep-results-for-N
// retention mode: the sequence that last produced (or, via an alias,
// re-requested) the path, and its file version, so retention never retires
// a file a client recently asked for — and never one an upload has since
// overwritten. Only under a retention policy: with retention off nothing
// would ever consume or prune the table, and it (plus its WAL records)
// would grow forever.
//
// qs arrives with what only the caller knows (eviction and match work, and
// for an execution the engine's counts); the compiled-job count and the
// rewrites' reuse counts and estimated savings are filled in here.
func (s *System) commitQuery(repo *core.Repository, p *Prepared, res *Result, qs core.QueryStats) {
	if s.selector.Policy.OutputRetention > 0 {
		for _, out := range p.requested {
			if isSystemPath(out) {
				continue
			}
			if v, err := s.fs.Version(out); err == nil {
				repo.NoteOutput(out, res.Seq, v)
			}
		}
	}
	qs.JobsCompiled = len(p.workflow.Jobs)
	for _, ri := range res.Rewrites {
		if ri.WholeJob {
			qs.WholeJobReuses++
		} else {
			qs.SubJobReuses++
		}
		// Estimate savings from the reused entry's recorded statistics: its
		// input no longer needs scanning (beyond reading the smaller stored
		// output) and its recorded execution time is not re-spent.
		if e := repo.Get(ri.EntryID); e != nil {
			if d := e.InputBytes - e.OutputBytes; d > 0 {
				qs.SavedBytes += d
			}
			qs.SavedTime += e.ExecTime
		}
	}
	s.stats.RecordQuery(qs)
}
