package restore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/mapred"
	"repro/internal/mrcompile"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/piglatin"
)

// Prepared is a parsed, planned, and compiled query awaiting execution. It
// holds no references to shared mutable state, so preparation runs without
// any lock and a Prepared value can cross goroutines (the restored daemon
// prepares on request goroutines and executes on its scheduler).
type Prepared struct {
	// Source is the original query text.
	Source string

	requested []string
	workflow  *mapred.Workflow
	access    AccessSet
	flightKey string
	tmpBase   string
}

// FlightKey returns a canonical fingerprint of what the prepared query
// computes: a hash over the sorted requested output paths and each compiled
// job's canonical plan form, with the preparation-private restore/tmp/qN
// namespace normalized away. Two queries whose scripts differ only in
// whitespace, variable names, or statement formatting prepare to identical
// canonical plans and therefore share a key — the restored daemon's
// single-flight group dedups on this, so semantically identical concurrent
// submissions share one execution.
func (p *Prepared) FlightKey() string { return p.flightKey }

// Access returns the query's declared read and write path sets: reads are
// the workflow's external inputs (loads not produced by the workflow
// itself), writes are the requested store paths plus the query's private
// restore/tmp/qN compile namespace. Paths the execution mints at run time
// (restore/sub/sN injection outputs) are globally unique across concurrent
// executions and need no declaration; stored outputs a rewrite reuses are
// protected by repository pinning rather than declaration. The System's
// lease table admits the execution on exactly this set.
func (p *Prepared) Access() AccessSet { return p.access }

// canonicalFlightKey derives FlightKey from a compiled workflow. Canonical
// plan forms are alias-free and operator-ID-free (physical.Plan.Canonical);
// Load paths inside the per-preparation tmp namespace are rewritten to a
// fixed placeholder so every preparation of the same script agrees, and
// Store paths (excluded from operator signatures on purpose — the matcher
// must ignore them) are appended explicitly: queries writing different
// outputs must not share a flight.
func canonicalFlightKey(w *mapred.Workflow, requested []string, tmpBase string) string {
	h := sha256.New()
	req := append([]string(nil), requested...)
	sort.Strings(req)
	for _, p := range req {
		_, _ = io.WriteString(h, p)
		h.Write([]byte{0})
	}
	for _, job := range w.Jobs {
		_, _ = io.WriteString(h, canonicalPlanKey(job.Plan, tmpBase))
		h.Write([]byte{1})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalPlanKey renders one job's plan canonically with the private tmp
// namespace replaced by a fixed placeholder and store destinations appended.
func canonicalPlanKey(p *physical.Plan, tmpBase string) string {
	norm := p.Clone()
	var stores []string
	for _, o := range norm.Ops() {
		if o.Path == "" {
			continue
		}
		o.Path = remapTmpPath(o.Path, tmpBase, "restore/tmp/q#")
		if o.Kind == physical.OpStore {
			stores = append(stores, o.Path)
		}
	}
	sort.Strings(stores)
	return norm.Canonical() + "\nstores:" + strings.Join(stores, ",")
}

// nextTmpBase draws a fresh private compile namespace (lock-free).
func (s *System) nextTmpBase() string {
	return fmt.Sprintf("restore/tmp/q%d", s.prep.Add(1))
}

// Prepare parses, plans, and compiles one query without executing it or
// touching the repository. Safe to call from many goroutines at once.
func (s *System) Prepare(src string) (*Prepared, error) {
	// The registry's parse-stage histogram covers the whole prepare path —
	// including failed parses, which still cost the client that latency.
	// Per-trace spans are recorded by the caller (the daemon), which owns
	// the trace.
	start := time.Now()
	defer func() { s.obs.ObserveStage(obs.StageParse, time.Since(start)) }()
	return prepare(src, s.nextTmpBase)
}

// prepare is the parse → plan → compile chain behind Prepare and Explain.
// tmpBase names the private namespace the compiled jobs write into; it is
// called only once the script has planned, so a script that fails to parse
// or plan draws no preparation number.
func prepare(src string, tmpBase func() string) (*Prepared, error) {
	script, err := piglatin.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := logical.Build(script)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Source: src, requested: make([]string, 0, len(plan.Sinks())), tmpBase: tmpBase()}
	for _, st := range plan.Sinks() {
		p.requested = append(p.requested, st.Path)
	}
	if p.workflow, err = mrcompile.Compile(plan, p.tmpBase); err != nil {
		return nil, err
	}
	p.access = workflowAccess(p.workflow, p.requested, p.tmpBase)
	p.flightKey = canonicalFlightKey(p.workflow, p.requested, p.tmpBase)
	return p, nil
}

// PrepareCached is Prepare through the prepared-plan cache: a script whose
// compiled form is cached skips parse, logical planning, and MapReduce
// compilation entirely — the cached workflow template is deep-cloned with a
// fresh restore/tmp/qN namespace (and a re-derived access set), so the
// returned Prepared is as independent as a freshly compiled one. hit
// reports whether the cache served the preparation. A miss compiles
// normally and populates the cache; with the cache disabled
// (WithPlanCache(0)) PrepareCached is exactly Prepare. Safe for concurrent
// use.
func (s *System) PrepareCached(src string) (p *Prepared, hit bool, err error) {
	if s.plans == nil {
		p, err = s.Prepare(src)
		return p, false, err
	}
	if cp := s.plans.lookup(src); cp != nil {
		start := time.Now()
		p, err = s.prepareFromCache(cp, src)
		if err == nil {
			// The clone cost lands in the parse-stage histogram like any
			// other preparation — the hit-vs-miss collapse is visible there.
			s.obs.ObserveStage(obs.StageParse, time.Since(start))
			s.stats.RecordPlanCache(true)
			return p, true, nil
		}
		// A clone failure means the cached template is unusable (it should
		// never happen: templates come from successful preparations); fall
		// through to a full prepare rather than failing the query.
	}
	p, err = s.Prepare(src)
	if err != nil {
		return nil, false, err
	}
	s.stats.RecordPlanCache(false)
	s.plans.add(src, p)
	return p, false, nil
}

// prepareFromCache mints an independent Prepared from a cached compiled
// template: every job plan is deep-cloned with paths under the template's
// private tmp namespace remapped into a freshly drawn one, jobs are rebuilt
// (re-validating and recomputing their map/reduce split), and the access
// set is re-derived. The FlightKey carries over unchanged — it is canonical
// precisely because the tmp namespace is normalized out of it.
func (s *System) prepareFromCache(cp *cachedPlan, src string) (*Prepared, error) {
	tmpBase := s.nextTmpBase()
	jobs := make([]*mapred.Job, 0, len(cp.workflow.Jobs))
	for _, job := range cp.workflow.Jobs {
		plan := job.Plan.Clone()
		for _, o := range plan.Ops() {
			if o.Path != "" {
				o.Path = remapTmpPath(o.Path, cp.tmpBase, tmpBase)
			}
		}
		nj, err := mapred.NewJob(job.ID, plan)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, nj)
	}
	w := &mapred.Workflow{Jobs: jobs}
	requested := append([]string(nil), cp.requested...)
	return &Prepared{
		Source:    src,
		requested: requested,
		workflow:  w,
		access:    workflowAccess(w, requested, tmpBase),
		flightKey: cp.key,
		tmpBase:   tmpBase,
	}, nil
}

// workflowAccess derives a compiled workflow's declared path sets: reads
// are every loaded path not produced by one of its own jobs; writes are the
// user-requested store paths plus the whole private tmp namespace (which
// prefix-covers the inter-job temporaries).
func workflowAccess(w *mapred.Workflow, requested []string, tmpBase string) AccessSet {
	produced := make(map[string]bool)
	for _, j := range w.Jobs {
		for _, out := range j.OutputPaths() {
			produced[out] = true
		}
	}
	a := AccessSet{Writes: append([]string{tmpBase}, requested...)}
	for _, j := range w.Jobs {
		for _, in := range j.InputPaths() {
			if !produced[in] {
				a.Reads = append(a.Reads, in)
			}
		}
	}
	a.normalize()
	return a
}

// Explanation is a dry-run report of what executing a query would reuse.
type Explanation struct {
	// JobsBeforeRewrite and JobsAfterRewrite count the workflow's MapReduce
	// jobs before and after matching against the repository.
	JobsBeforeRewrite int
	JobsAfterRewrite  int
	// Rewrites lists the reuses the matcher would apply.
	Rewrites []core.RewriteInfo
	// Aliases maps requested outputs that would not execute at all to the
	// stored files holding their data.
	Aliases map[string]string
}

// Explain compiles and rewrites a query against the current repository
// without executing it or changing any state.
func (s *System) Explain(src string) (*Explanation, error) {
	p, err := prepare(src, func() string { return "restore/tmp/explain" })
	if err != nil {
		return nil, err
	}
	ex := &Explanation{JobsBeforeRewrite: len(p.workflow.Jobs)}
	rw := &core.Rewriter{Repo: s.repo.Load(), Seq: s.seq.Load(), DryRun: true}
	outcome, err := rw.RewriteWorkflow(p.workflow)
	if err != nil {
		return nil, err
	}
	ex.JobsAfterRewrite = len(outcome.Jobs)
	ex.Rewrites = outcome.Rewrites
	ex.Aliases = outcome.Aliases
	return ex, nil
}
