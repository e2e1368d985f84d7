// Package restore is a Go reproduction of ReStore (Elghandour & Aboulnaga,
// PVLDB 5(6), 2012): a system that stores the outputs of MapReduce jobs
// produced by a Pig-like dataflow engine and reuses them to answer future
// queries, either as whole jobs or as materialized sub-jobs.
//
// The package wires together the full stack built in internal/: a Pig Latin
// dialect front end, a logical plan builder, a MapReduce compiler, a
// from-scratch MapReduce engine over a simulated DFS, a cluster cost model,
// and the ReStore core (plan matcher/rewriter, sub-job enumerator, and
// repository manager).
//
// Basic usage:
//
//	sys := restore.New()
//	// load data into sys.FS(), then:
//	res, err := sys.Execute(`
//	    A = load 'page_views' as (user, timestamp, est_revenue:double);
//	    B = foreach A generate user, est_revenue;
//	    store B into 'out/projected';
//	`)
//
// Executing related queries afterwards reuses the stored intermediate
// results automatically; Result.Rewrites reports what was reused.
package restore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mapred"
	"repro/internal/mrcompile"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/piglatin"
	"repro/internal/types"
)

// Heuristic re-exports the sub-job enumeration heuristics of §4.
type Heuristic = core.Heuristic

// Heuristic values.
const (
	// HeuristicOff disables sub-job materialization.
	HeuristicOff = core.HeuristicOff
	// HeuristicConservative materializes Project/Filter outputs.
	HeuristicConservative = core.HeuristicConservative
	// HeuristicAggressive also materializes Join/Group/CoGroup outputs
	// (the paper's default).
	HeuristicAggressive = core.HeuristicAggressive
	// HeuristicAll materializes after every operator ("No Heuristic").
	HeuristicAll = core.HeuristicAll
)

// Policy re-exports the repository management policy of §5.
type Policy = core.Policy

// DefaultReduceTasks re-exports the engine's default reduce partition count
// (the -reduce-tasks flag default).
const DefaultReduceTasks = mapred.DefaultReduceTasks

// System is a ReStore deployment: a DFS, a cluster model, a MapReduce
// engine, and the shared repository that persists across queries.
//
// Concurrency contract: every method is safe for concurrent use. Prepare
// (parse / plan / compile) runs lock-free, so many clients can prepare
// queries in parallel. ExecutePrepared admits executions through a
// path-lease table keyed by each Prepared query's declared read and write
// sets (Prepared.Access): path-disjoint workflows execute fully in
// parallel, while workflows whose write sets overlap another's reads or
// writes wait their turn in FIFO order. Stored outputs a rewrite decides
// to reuse are pinned in the repository for the duration of the execution,
// so a concurrent workflow's eviction can never delete a file mid-reuse.
// SaveState, SaveRepository, LoadRepositoryFrom, and SetDataScale take a
// universal (write-set-universal) lease: they drain every in-flight
// execution and block new admissions, which is what makes a checkpoint a
// consistent repository+DFS pair. Explain and the read-only accessors only
// take the repository's and DFS's own read locks.
type System struct {
	fs      *dfs.FS
	cluster *cluster.Config
	engine  *mapred.Engine
	// backend executes compiled workflows. It defaults to the in-process
	// engine; WithBackend/SetBackend swap in a remote coordinator (the
	// fleet). Everything above this boundary — planning, rewriting,
	// admission, repository registration — is backend-agnostic.
	backend Backend
	// repo is an atomic pointer so lock-free readers (Explain, Repository)
	// stay safe across a LoadRepositoryFrom swap.
	repo      atomic.Pointer[core.Repository]
	selector  *core.Selector
	heuristic Heuristic
	reuse     bool
	register  bool
	// registerFinals additionally stores user-named query outputs (the
	// Facebook keep-results-for-7-days mode); by default only workflow
	// intermediates and injected sub-jobs enter the repository.
	registerFinals bool

	// plans is the bounded LRU prepared-plan cache behind PrepareCached;
	// nil when disabled (WithPlanCache(0)). Cached compiled workflows are
	// immutable templates — clones re-mint only the per-query tmp namespace
	// and access set — so the cache needs no invalidation: plans are a pure
	// function of the script text, independent of data and repository state.
	plans *planCache

	// leases admits mutating operations by declared read/write path sets;
	// parsing, planning, and compilation happen outside it. Disjoint
	// executions hold leases concurrently; universal operations
	// (checkpoints, repository swaps) drain them. Split into one table per
	// shard (shardkey routing, same as the DFS namespace): disjoint
	// executions on different shards never touch the same lease mutex, and
	// universal operations become the cross-shard barrier, acquiring every
	// table in ascending order.
	leases *shardedLeases
	// shards is the execution-core shard count (DFS namespace, lease
	// tables, repository path indexes, WAL streams, GC scanners). 1 — the
	// default — is the single-domain oracle configuration.
	shards int
	// seq is the workflow sequence: assigned right after admission (lease
	// grant) so repository statistics (CreatedSeq, LastUsedSeq) and the §5
	// eviction window see sequence numbers ordered along every conflict
	// chain (disjoint concurrent queries may interleave theirs), even when
	// many queries prepare concurrently. prep numbers the
	// restore/tmp/qN compile namespaces (prepare order, lock-free) and
	// subPath the restore/sub/sN injection outputs.
	seq     atomic.Int64
	prep    atomic.Int64
	subPath atomic.Int64
	stats   core.Stats

	// obs records stage latencies and lease gauges; nil (or obs.Disabled)
	// makes every record a single-branch no-op, so library users who never
	// call SetObserver pay nothing. Shared with leases.obs — set both via
	// SetObserver before traffic, never mid-stream.
	obs *obs.Registry

	// fullSweep requests one naive full-repository eviction sweep before
	// the next query. Set at construction and by AdoptRepository: an
	// adopted repository may reference files mutated or missing in ways the
	// DFS mutation feed never saw (a repository loaded without its DFS
	// snapshot), so the first query after a swap re-validates everything.
	// Afterwards Rule-4 work is index-driven: each query checks only the
	// entries touching the paths mutated since the previous check
	// (dfs.TakeEvictionDirty -> Selector.EvictPaths).
	fullSweep atomic.Bool
}

// Option configures a System.
type Option func(*System)

// WithHeuristic selects the sub-job enumeration heuristic (default
// Aggressive, as in the paper's experiments).
func WithHeuristic(h Heuristic) Option {
	return func(s *System) { s.heuristic = h }
}

// WithReuse toggles plan matching and rewriting (default on). Disabling it
// yields the "No Data Reuse" baseline of §7.
func WithReuse(on bool) Option {
	return func(s *System) { s.reuse = on }
}

// WithRegistration toggles storing executed job outputs in the repository
// (default on).
func WithRegistration(on bool) Option {
	return func(s *System) { s.register = on }
}

// WithRegisterFinalOutputs additionally registers user-named outputs, not
// just intermediates and sub-jobs. Reusing such an entry reads a path other
// queries may overwrite, so the rewriter extends the running query's lease
// with that path (skipping the reuse if a conflicting writer is in flight),
// and eviction invalidates the entry once the file's version moves.
func WithRegisterFinalOutputs(on bool) Option {
	return func(s *System) { s.registerFinals = on }
}

// WithPolicy sets the repository keep/evict policy (§5). The default keeps
// every candidate, matching the paper's experimental setup.
func WithPolicy(p Policy) Option {
	return func(s *System) { s.selector.Policy = p }
}

// WithReducePartitions sets the number of real reduce partitions the engine
// hash-partitions each shuffle into (not the simulated reduce task count).
func WithReducePartitions(n int) Option {
	return func(s *System) { s.engine.ReduceTasks = n }
}

// WithMapParallelism bounds how many map tasks the engine runs
// concurrently per job; n <= 0 (the default) selects
// runtime.GOMAXPROCS(0).
func WithMapParallelism(n int) Option {
	return func(s *System) { s.engine.MapParallelism = n }
}

// WithReduceParallelism bounds how many reduce partitions the engine runs
// concurrently per job; n <= 0 (the default) selects
// runtime.GOMAXPROCS(0). Reduce partitions are independent, so the setting
// changes wall clock only, never results.
func WithReduceParallelism(n int) Option {
	return func(s *System) { s.engine.ReduceParallelism = n }
}

// WithBackend installs the execution backend the System submits compiled
// workflows to. The default is the System's own in-process engine (which a
// nil b restores). Backends that need the System's final FS or repository —
// built only after New returns — can use SetBackend instead.
func WithBackend(b Backend) Option {
	return func(s *System) { s.backend = b }
}

// WithPlanCache sizes the prepared-plan cache behind PrepareCached: how
// many canonical compiled plans are retained (LRU). n <= 0 disables the
// cache, making PrepareCached exactly Prepare. The default is
// DefaultPlanCacheSize.
func WithPlanCache(n int) Option {
	return func(s *System) {
		if n <= 0 {
			s.plans = nil
			return
		}
		s.plans = newPlanCache(n)
	}
}

// DefaultPlanCacheSize is the prepared-plan cache capacity a System is
// constructed with (override with WithPlanCache).
const DefaultPlanCacheSize = 256

// WithObserver installs a telemetry registry at construction; equivalent to
// calling SetObserver before any traffic.
func WithObserver(r *obs.Registry) Option {
	return func(s *System) { s.SetObserver(r) }
}

// WithShards splits the execution core — DFS namespace, lease tables, and
// repository path-keyed state — into n independently locked shards, routed
// by shardkey (a path's whole subtree colocates; universal operations
// barrier across all shards in canonical order). n <= 0 selects
// runtime.GOMAXPROCS(0). The default is 1: a single-shard System is
// behaviorally identical to the pre-sharding implementation and serves as
// the differential-test oracle for the sharded configurations. Reuse
// semantics are independent of n — the match/fingerprint index is shared at
// every shard count.
func WithShards(n int) Option {
	return func(s *System) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		s.shards = n
	}
}

// New creates a System with an empty DFS and repository.
func New(opts ...Option) *System {
	fs := dfs.New()
	clus := cluster.Default()
	s := &System{
		fs:        fs,
		cluster:   clus,
		engine:    mapred.NewEngine(fs, clus),
		heuristic: HeuristicAggressive,
		reuse:     true,
		register:  true,
		plans:     newPlanCache(DefaultPlanCacheSize),
		shards:    1,
	}
	s.repo.Store(core.NewRepository())
	s.selector = &core.Selector{Repo: s.repo.Load(), FS: fs, Cluster: clus, Policy: core.DefaultPolicy()}
	s.fullSweep.Store(true)
	for _, opt := range opts {
		opt(s)
	}
	// Options may replace the cluster config; keep the engine and selector
	// pointed at the final one.
	s.engine.Cluster = s.cluster
	s.selector.Cluster = s.cluster
	if s.shards != 1 {
		// WithShards: rebuild the empty storage domains at the requested
		// shard count (nothing has been written yet — options only set
		// configuration) and repoint every component that captured the
		// originals.
		s.fs = dfs.NewSharded(s.shards)
		s.engine.FS = s.fs
		s.selector.FS = s.fs
		s.repo.Store(core.NewShardedRepository(s.shards))
		s.selector.Repo = s.repo.Load()
	}
	s.leases = newShardedLeases(s.shards)
	s.leases.obs = s.obs // WithObserver may have run before leases existed
	if s.backend == nil {
		s.backend = s.engine
	}
	return s
}

// SetBackend swaps the execution backend after construction (nil restores
// the in-process engine). Remote coordinators are wired here rather than via
// WithBackend because they need the System's final FS and repository, which
// exist only once New has applied every option. Call it before submitting
// traffic — installation is not synchronized against in-flight executions.
func (s *System) SetBackend(b Backend) {
	if b == nil {
		b = s.engine
	}
	s.backend = b
}

// Backend returns the installed execution backend.
func (s *System) Backend() Backend { return s.backend }

// Shards returns the execution-core shard count the System was built with.
func (s *System) Shards() int { return s.shards }

// SetObserver installs the telemetry registry the System (and its lease
// table) records stage latencies, lease waits, and gauges into. Call it
// before submitting traffic — installation is not synchronized against
// in-flight executions. nil or obs.Disabled turns recording off.
func (s *System) SetObserver(r *obs.Registry) {
	s.obs = r
	if s.leases != nil {
		s.leases.obs = r
	}
}

// Observer returns the installed telemetry registry (nil when none was
// set). The restored daemon uses it to render GET /metrics.
func (s *System) Observer() *obs.Registry { return s.obs }

// FS exposes the simulated distributed file system (for loading data sets
// and reading results).
func (s *System) FS() *dfs.FS { return s.fs }

// Cluster exposes the cost-model configuration.
func (s *System) Cluster() *cluster.Config { return s.cluster }

// Engine exposes the MapReduce engine (for inspection and tests asserting
// option/flag wiring).
func (s *System) Engine() *mapred.Engine { return s.engine }

// Repository exposes the ReStore repository (for inspection and tooling).
func (s *System) Repository() *core.Repository { return s.repo.Load() }

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

// canonicalPlanKey renders one job's plan canonically with tmp paths
// normalized and store destinations appended.
func canonicalPlanKey(p *physical.Plan, tmpBase string) string {
	norm := p.Clone()
	var stores []string
	for _, o := range norm.Ops() {
		if o.Path == "" {
			continue
		}
		o.Path = normalizeTmpPath(o.Path, tmpBase)
		if o.Kind == physical.OpStore {
			stores = append(stores, o.Path)
		}
	}
	sort.Strings(stores)
	return norm.Canonical() + "\nstores:" + strings.Join(stores, ",")
}

// normalizeTmpPath replaces the preparation-private tmp namespace prefix
// with a fixed placeholder; all other paths pass through.
func normalizeTmpPath(p, tmpBase string) string {
	if rest, ok := strings.CutPrefix(p, tmpBase); ok && (rest == "" || rest[0] == '/') {
		return "restore/tmp/q#" + rest
	}
	return p
}

// Access returns the query's declared read and write path sets: reads are
// the workflow's external inputs (loads not produced by the workflow
// itself), writes are the requested store paths plus the query's private
// restore/tmp/qN compile namespace. Paths the execution mints at run time
// (restore/sub/sN injection outputs) are globally unique across concurrent
// executions and need no declaration; stored outputs a rewrite reuses are
// protected by repository pinning rather than declaration. The System's
// lease table admits the execution on exactly this set.
func (p *Prepared) Access() AccessSet { return p.access }

// Prepare parses, plans, and compiles one query without executing it or
// touching the repository. Safe to call from many goroutines at once.
func (s *System) Prepare(src string) (*Prepared, error) {
	// The registry's parse-stage histogram covers the whole prepare path —
	// including failed parses, which still cost the client that latency.
	// Per-trace spans are recorded by the caller (the daemon), which owns
	// the trace.
	start := time.Now()
	defer func() { s.obs.ObserveStage(obs.StageParse, time.Since(start)) }()
	return prepare(src, func() string { return fmt.Sprintf("restore/tmp/q%d", s.prep.Add(1)) })
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
	tmpBase := fmt.Sprintf("restore/tmp/q%d", s.prep.Add(1))
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
	s.obs.ObserveStage(obs.StageLease, tr.ObserveSince(obs.StageLease, t))

	seq := s.seq.Add(1)
	workflow := p.workflow
	// Swapping the repository takes a universal lease, so the one loaded
	// under this lease stays the live one until release.
	repo := s.repo.Load()

	// Phase 0 (§5): evict stale or invalidated entries before matching.
	// Index-driven: Rule-4 checks touch only entries reading a path the DFS
	// mutation feed reports changed (plus one full sweep after a repository
	// swap), and the Rule-3 window / size budget scan in-memory usage
	// metadata only — per-query eviction work scales with what changed, not
	// with repository size. Owned-file delete failures are counted and the
	// files re-queued (see Selector.removeEntry); they never fail this
	// unrelated query.
	t = time.Now()
	var est core.EvictStats
	evicted := s.evictPhase(seq, &est)
	s.obs.ObserveStage(obs.StageEvict, tr.ObserveSince(obs.StageEvict, t))

	// Phase 1 (§3): match and rewrite against the repository. The rewriter
	// pins every reused entry; the pins are held until this call returns —
	// through the engine run, which loads the reused files, and through
	// read, whose outputs may alias them — so a concurrent disjoint
	// execution's eviction cannot delete them underneath us.
	aliases := make(map[string]string)
	var rewrites []core.RewriteInfo
	var matchStats core.MatchStats
	jobs := workflow.Jobs
	t = time.Now()
	if s.reuse {
		rw := &core.Rewriter{Repo: repo, Seq: seq, Guard: func(e *core.Entry) bool {
			// Pin-time freshness: with eviction demoted to the mutation feed
			// and the GC loop, this check (not a pre-match sweep) is what
			// guarantees a modified input is never answered from old
			// results — a concurrent query may have consumed the feed batch
			// that would have evicted this entry, leaving it present but
			// stale. The entry's inputs are covered by this execution's
			// lease (they are loads of the matched plan region), so
			// freshness established here holds through the run.
			if !core.EntryFresh(s.fs, e, s.selector.Policy.CheckInputVersions, &est) {
				// Queue the stale entry so the next indexed pass evicts it.
				s.selector.NoteStale(e.ID)
				return false
			}
			if e.OwnsFile {
				// Repository-owned files live in minted-once namespaces:
				// nothing ever rewrites them, and the pin (below) blocks
				// eviction. Safe without touching the lease.
				return true
			}
			// A user-named stored output can be overwritten by a concurrent
			// path-disjoint workflow that declared it as a write. Extend
			// this execution's lease with the read; if a conflicting writer
			// is already in flight, skip the reuse instead of racing it.
			return s.leases.extendReads(lease, e.OutputPath)
		}}
		outcome, err := rw.RewriteWorkflow(workflow)
		if err != nil {
			return nil, err
		}
		defer repo.Unpin(outcome.Pinned)
		jobs = outcome.Jobs
		aliases = outcome.Aliases
		rewrites = outcome.Rewrites
		matchStats = outcome.Match
	}
	s.obs.ObserveStage(obs.StageMatch, tr.ObserveSince(obs.StageMatch, t))

	// Phase 2 (§4): enumerate sub-jobs and inject materialization points.
	t = time.Now()
	var pending []pendingCandidate
	finalJobs := make([]*mapred.Job, 0, len(jobs))
	for _, job := range jobs {
		jp := job.Plan.Clone()
		injs, err := core.EnumerateSubJobs(jp, s.heuristic, func() string {
			return fmt.Sprintf("restore/sub/s%d", s.subPath.Add(1))
		})
		if err != nil {
			return nil, err
		}
		nj, err := mapred.NewJob(job.ID, jp)
		if err != nil {
			return nil, err
		}
		finalJobs = append(finalJobs, nj)
		for _, inj := range injs {
			pending = append(pending, pendingCandidate{jobID: job.ID, inj: inj})
		}
	}
	s.obs.ObserveStage(obs.StagePlan, tr.ObserveSince(obs.StagePlan, t))

	// Phase 3: execute on the MapReduce engine.
	t = time.Now()
	res := &Result{Seq: seq, Outputs: make(map[string]string), Rewrites: rewrites}
	var wfRes *mapred.WorkflowResult
	if len(finalJobs) > 0 {
		var err error
		wfRes, err = s.backend.RunWorkflow(context.Background(), &mapred.Workflow{Jobs: finalJobs})
		if err != nil {
			return nil, err
		}
		res.SimulatedTime = wfRes.SimulatedTime
		res.InjectedBytes = wfRes.TotalInjectedBytes
		for _, id := range wfRes.Order {
			jr := wfRes.JobResults[id]
			res.Jobs = append(res.Jobs, JobReport{
				JobID:         id,
				InputBytes:    jr.Stats.InputBytes,
				ShuffleBytes:  jr.Stats.ShuffleBytes,
				OutputBytes:   jr.Stats.OutputBytes,
				InjectedBytes: jr.InjectedStoreBytes,
				SimulatedTime: jr.Times.Total,
			})
		}
	}
	s.obs.ObserveStage(obs.StageExecute, tr.ObserveSince(obs.StageExecute, t))

	// Phase 4 (§5): register candidates.
	t = time.Now()
	rejected := 0
	if s.register && wfRes != nil {
		added, rej, err := s.registerCandidates(finalJobs, pending, wfRes, seq)
		if err != nil {
			return nil, err
		}
		res.Registered = added
		rejected = rej
	}
	res.Evicted = evicted

	for _, out := range p.requested {
		actual := out
		if a, ok := aliases[out]; ok {
			actual = a
		}
		res.Outputs[out] = actual
	}
	s.commitQuery(repo, p, res, core.QueryStats{
		JobsExecuted:  len(finalJobs),
		Registered:    res.Registered,
		Rejected:      rejected,
		Evict:         est,
		SimulatedTime: res.SimulatedTime,
		Match:         matchStats,
	})
	s.obs.ObserveStage(obs.StageStore, tr.ObserveSince(obs.StageStore, t))
	if read != nil {
		if err := read(res); err != nil {
			return nil, err
		}
	}
	return res, nil
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
	guard := func(e *core.Entry) bool {
		if !e.OwnsFile && (!s.selector.Policy.CheckInputVersions || e.OutputVersion == 0) {
			// A user-named stored output without a live OutputVersion guard
			// (versions off, or a pre-version persisted entry) cannot be
			// served leaselessly: an overwrite would be undetectable.
			return false
		}
		if !core.EntryFresh(s.fs, e, s.selector.Policy.CheckInputVersions, &est) {
			// Queue the stale entry so the next indexed eviction pass
			// removes it.
			s.selector.NoteStale(e.ID)
			return false
		}
		return true
	}
	fsv, ok, err := core.ProbeWholeQuery(p.workflow, repo, guard)
	fallBack := func() (*Result, bool) {
		s.obs.ObserveStage(obs.StageHot, tr.ObserveSince(obs.StageHot, t))
		if fsv != nil {
			s.stats.RecordMatchWork(fsv.Match)
		}
		s.stats.RecordEviction(est)
		s.stats.RecordFastPath(false)
		return nil, false
	}
	if err != nil || !ok {
		return fallBack()
	}
	res := &Result{Seq: s.seq.Add(1), Outputs: make(map[string]string, len(p.requested)), Rewrites: fsv.Rewrites}
	complete := true
	for _, out := range p.requested {
		actual, have := fsv.Aliases[out]
		if !have {
			complete = false
			break
		}
		res.Outputs[out] = actual
	}
	if !complete {
		// Defensive: a fully collapsed workflow aliases every store path;
		// if that invariant ever breaks, fall back rather than serve a
		// partial result.
		repo.Unpin(fsv.Pinned)
		return fallBack()
	}
	// The probe (everything up to here) is the hot span; the pinned read is
	// timed by the caller as its rows stage.
	s.obs.ObserveStage(obs.StageHot, tr.ObserveSince(obs.StageHot, t))
	abort := func() (*Result, bool) {
		repo.Unpin(fsv.Pinned)
		s.stats.RecordMatchWork(fsv.Match)
		s.stats.RecordEviction(est)
		s.stats.RecordFastPath(false)
		return nil, false
	}
	if read != nil {
		if err := read(res); err != nil {
			return abort()
		}
	}
	// Pins shield owned files from eviction, not user-named files from a
	// concurrent leased overwrite. Re-validate those entries' output
	// versions now: the DFS version counter is globally monotonic, so an
	// unchanged recorded version brackets the read — no overwrite (whose
	// Create bumps the version before any new byte is visible) intersected
	// it. A moved version means the bytes just read may mix states; discard
	// and fall back to a leased execution.
	for _, id := range fsv.Uses {
		e := repo.Get(id)
		if e == nil || e.OwnsFile {
			continue
		}
		if v, verr := s.fs.Version(e.OutputPath); verr != nil || v != e.OutputVersion {
			s.selector.NoteStale(id)
			return abort()
		}
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

// Stats returns a snapshot of the system's lifetime reuse counters.
func (s *System) Stats() core.StatsSnapshot { return s.stats.Snapshot() }

// Seq returns the current workflow sequence number (the clock the §5
// eviction window and retention policies measure in).
func (s *System) Seq() int64 { return s.seq.Load() }

// evictPhase is phase 0 of every execution: one Rule-4 pass (the naive full
// sweep when a repository swap demands it, the mutation-feed-indexed pass
// otherwise), one Rule-3-window/size-budget pass when the policy asks for
// either, then the cascade fixpoint — an evicted entry's deleted file marks
// the feed, so each extra round touches only the entries reading the paths
// the previous round deleted and the loop stops as soon as nothing relevant
// was evicted (no full re-scans). Delete failures are counted in st, never
// returned: they must not fail the triggering query.
func (s *System) evictPhase(seq int64, st *core.EvictStats) []string {
	var evicted []string
	if s.fullSweep.CompareAndSwap(true, false) {
		// The sweep re-validates every entry; the pending feed batch is
		// subsumed by it.
		s.fs.TakeEvictionDirty()
		ev, _ := s.selector.Evict(seq, st)
		evicted = append(evicted, ev...)
	} else if dirty := s.fs.TakeEvictionDirty(); len(dirty) > 0 || s.selector.PendingWork() {
		ev, _ := s.selector.EvictPaths(seq, dirty, st)
		evicted = append(evicted, ev...)
	}
	pol := s.selector.Policy
	if pol.EvictionWindow > 0 || pol.RepoBudgetBytes > 0 {
		ev, _ := s.selector.EvictWindowBudget(seq, st)
		evicted = append(evicted, ev...)
	}
	return s.cascade(seq, evicted, s.fs.TakeEvictionDirty, st)
}

// cascade runs the eviction cascade to its fixpoint: an evicted entry's
// deleted files mark the mutation feed that drain empties, so each round
// evicts only the readers of what the previous round deleted, and the loop
// stops once a round evicts nothing or the feed is empty. It returns
// evicted with the cascaded evictions appended.
func (s *System) cascade(seq int64, evicted []string, drain func() []string, st *core.EvictStats) []string {
	for last := evicted; len(last) > 0; {
		dirty := drain()
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

// CollectGarbage runs one repository growth-management pass: the full
// (reference) eviction sweep, the Rule-3 window and size-budget passes, the
// cascade fixpoint, and — when the policy enables it — user-output
// retention. The restored daemon's GC loop calls it on a cadence so the
// per-query path stays index-driven; library users running long query
// streams with a retention policy call it themselves.
//
// Leasing: eviction needs no lease (pinned entries are never removed), but
// retiring a user-named out/... file must not race an in-flight query
// reading it, so the pass takes a write lease on exactly the retention
// candidates — disjoint queries keep executing throughout. Delete failures
// are counted in the report's Stats, not returned.
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
	st := &rep.Stats
	s.fullSweep.Store(false) // the sweep below covers the pending request
	s.fs.TakeEvictionDirty()
	ev, _ := s.selector.Evict(nowSeq, st)
	rep.Evicted = append(rep.Evicted, ev...)
	wb, _ := s.selector.EvictWindowBudget(nowSeq, st)
	rep.Evicted = s.cascade(nowSeq, append(rep.Evicted, wb...), s.fs.TakeEvictionDirty, st)
	rep.Retired, _ = s.selector.RetireOutputs(nowSeq, cands, st)
	s.stats.RecordEviction(*st)
	return rep
}

// CollectShardGarbage runs one eviction pass over a single shard's slice of
// the DFS mutation feed: the indexed Rule-4 pass (plus the cascade fixpoint)
// on only the entries touching paths that shard reported mutated. The
// restored daemon runs one scanner per shard on a cadence, so each
// scanner's work is proportional to its own shard's churn and scanners on
// different shards drain their feeds concurrently.
//
// Leasing: eviction itself needs no path lease (pinned entries are never
// removed), but the pass must not race a universal repository swap
// (AdoptRepository mutating selector.Repo), so it holds an empty access-set
// lease — conflicting with nothing except universal barriers, exactly like
// an in-flight query. A pending full sweep subsumes per-shard work: the
// pass leaves the feed for the sweep.
func (s *System) CollectShardGarbage(shard int) GCReport {
	var rep GCReport
	if shard < 0 || shard >= s.shards {
		return rep
	}
	lease := s.leases.acquire(AccessSet{})
	defer s.leases.release(lease)
	if s.fullSweep.Load() {
		return rep
	}
	nowSeq := s.seq.Load()
	dirty := s.fs.TakeEvictionDirtyShard(shard)
	if len(dirty) == 0 && !s.selector.PendingWork() {
		return rep
	}
	st := &rep.Stats
	ev, _ := s.selector.EvictPaths(nowSeq, dirty, st)
	// The cascade stays within the shard: an evicted entry's deleted owned
	// file re-marks this shard's feed (owned files colocate with their
	// namespace root).
	rep.Evicted = s.cascade(nowSeq, ev, func() []string { return s.fs.TakeEvictionDirtyShard(shard) }, st)
	s.stats.RecordEviction(*st)
	return rep
}

// pendingCandidate is a sub-job injection awaiting post-execution
// registration.
type pendingCandidate struct {
	jobID string
	inj   core.Injection
}

// registerCandidates turns executed outputs into repository entries: every
// non-final primary store (workflow intermediates), every injected sub-job,
// and — when configured — the user-named outputs. It returns how many
// candidates entered the repository and how many the §5 keep rules (or a
// vanished input) rejected; duplicates of already-stored plans count as
// neither.
func (s *System) registerCandidates(jobs []*mapred.Job, pending []pendingCandidate, wfRes *mapred.WorkflowResult, seq int64) (int, int, error) {
	added, rejected := 0, 0
	note := func(e *core.Entry, ok bool) {
		switch {
		case ok:
			added++
		case e == nil:
			rejected++
		}
	}
	for _, job := range jobs {
		jr := wfRes.JobResults[job.ID]
		if jr == nil {
			continue
		}
		for _, st := range job.Plan.Sinks() {
			if st.Injected {
				continue // handled via pending injections below
			}
			owns := isSystemPath(st.Path)
			if !owns && !s.registerFinals {
				continue
			}
			cand, err := core.WholeJobCandidate(job.Plan, st)
			if err != nil {
				return added, rejected, err
			}
			entry, ok, err := s.selector.Consider(core.Candidate{
				Plan:       cand,
				OutputPath: st.Path,
				Schema:     st.Schema,
				InputBytes: jr.Stats.InputBytes,
				OutputBytes: func() int64 {
					if b, ok := jr.StoreBytes[st.Path]; ok {
						return b
					}
					return 0
				}(),
				ExecTime: jr.Times.Total,
				OwnsFile: owns,
			}, seq)
			if err != nil {
				return added, rejected, err
			}
			note(entry, ok)
		}
	}
	byID := make(map[string]*mapred.Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}
	for _, pc := range pending {
		jr := wfRes.JobResults[pc.jobID]
		if jr == nil {
			continue
		}
		entry, ok, err := s.selector.Consider(core.Candidate{
			Plan:        pc.inj.CandidatePlan,
			OutputPath:  pc.inj.Path,
			Schema:      pc.inj.CandidatePlan.Sinks()[0].Schema,
			InputBytes:  jr.Stats.InputBytes,
			OutputBytes: jr.StoreBytes[pc.inj.Path],
			ExecTime:    jr.Times.Total,
			OwnsFile:    true,
		}, seq)
		if err != nil {
			return added, rejected, err
		}
		note(entry, ok)
	}
	return added, rejected, nil
}

// isSystemPath reports whether the path is in ReStore's namespace (temps and
// sub-job outputs), i.e. the repository owns the file.
func isSystemPath(p string) bool {
	return len(p) >= 8 && p[:8] == "restore/"
}

// SaveRepository persists the repository (plans, filenames, statistics) as
// JSON, the §6.2 "table" of stored job outputs. It takes a universal lease
// so the snapshot never interleaves with a half-registered query.
func (s *System) SaveRepository(w io.Writer) error {
	lease := s.leases.acquire(UniversalAccess())
	defer s.leases.release(lease)
	return s.repo.Load().Save(w)
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
	repo, err := core.LoadRepositorySharded(r, s.shards)
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
	// The adopted repository may reference files the mutation feed never
	// saw change (or that are simply missing); re-validate everything once.
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

// ReadOutput reads the tuples of one requested output of a Result,
// following aliases.
func (s *System) ReadOutput(res *Result, requested string) ([]types.Tuple, error) {
	actual, ok := res.Outputs[requested]
	if !ok {
		return nil, fmt.Errorf("restore: %q is not an output of this query", requested)
	}
	return s.fs.ReadAll(actual)
}

// ReadOutputTSV reads an output as sorted tab-separated lines — convenient
// for comparisons and examples.
func (s *System) ReadOutputTSV(res *Result, requested string) ([]string, error) {
	tuples, err := s.ReadOutput(res, requested)
	if err != nil {
		return nil, err
	}
	lines := make([]string, len(tuples))
	for i, t := range tuples {
		lines[i] = types.FormatTSV(t)
	}
	sort.Strings(lines)
	return lines, nil
}
