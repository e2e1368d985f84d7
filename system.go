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
//
// The package's files follow a query's life: system.go holds the System,
// its options and accessors; prepare.go parses, plans and compiles
// (Prepare, PrepareCached, Explain); execute.go runs the leased phases
// (ExecutePreparedTraced); hot.go serves stored results without a lease
// (TryServeStored); rows.go reads outputs back as sorted lines
// (ReadOutputLines, ReadOutputTSV); gc.go is §5 eviction (CollectGarbage);
// state.go is the durable-state surface (SaveState, AdoptRepository);
// access.go is the lease table.
package restore

import (
	"runtime"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/obs"
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
	// (checkpoints, repository swaps) drain them. One table at every shard
	// count: only the DFS namespace and the WAL streams are sharded.
	leases leaseTable
	// shards is the DFS namespace shard count, which also fixes the number
	// of per-shard WAL streams. 1 is the default.
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

// WithShards splits the DFS namespace into n independently locked shards,
// routed by path (a path's whole subtree colocates), and gives the daemon's
// write-ahead log one stream per shard. n <= 0 selects
// runtime.GOMAXPROCS(0). The default is 1. Lease admission and the
// repository are one domain at every n, so results, reuse decisions and
// saved state are independent of n.
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
		// WithShards: rebuild the empty DFS at the requested shard count
		// (nothing has been written yet — options only set configuration)
		// and repoint every component that captured the original.
		s.fs = dfs.NewSharded(s.shards)
		s.engine.FS = s.fs
		s.selector.FS = s.fs
	}
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

// Shards returns the DFS namespace shard count the System was built with.
func (s *System) Shards() int { return s.shards }

// SetObserver installs the telemetry registry the System (and its lease
// table) records stage latencies, lease waits, and gauges into. Call it
// before submitting traffic — installation is not synchronized against
// in-flight executions. nil or obs.Disabled turns recording off.
func (s *System) SetObserver(r *obs.Registry) {
	s.obs = r
	s.leases.obs = r
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

// Stats returns a snapshot of the system's lifetime reuse counters.
func (s *System) Stats() core.StatsSnapshot { return s.stats.Snapshot() }

// Seq returns the current workflow sequence number (the clock the §5
// eviction window and retention policies measure in).
func (s *System) Seq() int64 { return s.seq.Load() }
