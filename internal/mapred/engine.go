package mapred

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/exec"
	"repro/internal/physical"
	"repro/internal/types"
)

// Engine executes jobs against a DFS and costs them with a cluster model.
//
// The data plane shuffles the way Hadoop does: each map task sorts its
// per-reduce-partition output runs locally (inside the map-task pool), the
// reduce side k-way-merges the pre-sorted runs, and reduce partitions run
// on their own bounded worker pool. The shuffle order — (key, tag, seq),
// compiled per job into a jobComparator — is strict (seq is globally
// unique), so none of that parallelism or the non-stable sorts can change
// output bytes.
type Engine struct {
	FS      *dfs.FS
	Cluster *cluster.Config
	// ReduceTasks is the number of real reduce partitions (execution
	// parallelism, independent of the simulated reduce-task count).
	ReduceTasks int
	// MapParallelism bounds concurrent map tasks; 0 means GOMAXPROCS.
	MapParallelism int
	// ReduceParallelism bounds concurrent reduce partitions; 0 means
	// GOMAXPROCS. Partitions are independent (hash-partitioned by key and
	// committed to distinct file partitions), so the pool changes wall
	// clock only, never output.
	ReduceParallelism int
	// DisableCombiner turns off map-side combining of algebraic aggregates
	// (used by tests to verify the combined and uncombined paths agree).
	DisableCombiner bool
	// Runner executes individual tasks. Nil selects the in-process runner
	// (this process's map/reduce pools against FS). Remote backends
	// (internal/fleet) install a TaskRunner that ships tasks to worker
	// processes; either way the engine keeps planning, output-file
	// creation, partition commits, and stats.
	Runner TaskRunner
	// PhaseHook, when set, is called as each job passes a phase boundary
	// with the job ID and a label ("map-done", "job-done"). Fault-injection
	// tests use it to time worker kills against phase boundaries.
	PhaseHook func(jobID, phase string)

	// runHint is the observed mean shuffle-run length of the engine's most
	// recent reduce job; map tasks pre-size their run buffers from it so
	// steady-state workloads skip the append growth path.
	runHint atomic.Int64
	// mapTaskHook, when set, runs at the start of every map task executed
	// by the in-process runner (the cancellation regression tests block
	// and release it).
	mapTaskHook func(ctx context.Context, taskIdx int) error
}

// DefaultReduceTasks is the reduce partition count NewEngine configures.
const DefaultReduceTasks = 4

// NewEngine returns an engine with default execution parallelism.
func NewEngine(fs *dfs.FS, c *cluster.Config) *Engine {
	return &Engine{FS: fs, Cluster: c, ReduceTasks: DefaultReduceTasks}
}

// JobResult reports the real counters and simulated timing of one job.
type JobResult struct {
	JobID string
	Stats cluster.JobStats
	Times cluster.Times
	// StoreBytes maps every written output path to its logical bytes.
	StoreBytes map[string]int64
	// InjectedStoreBytes is the total written by ReStore-injected stores —
	// the materialization overhead the paper measures.
	InjectedStoreBytes int64
}

// shuffleRec is one map-output record: a key, the input branch tag, a
// sequence number for deterministic ordering, and the value tuple.
type shuffleRec struct {
	key types.Tuple
	tag int
	seq int64
	val types.Tuple
}

// mapTask identifies one unit of map work: a Load operator and one partition
// of its input file.
type mapTask struct {
	loadID    int
	partition int
	taskIdx   int
}

// RunJob executes the job and returns its statistics and simulated times.
// Cancelling ctx stops in-flight map tasks and reduce partitions at their
// next record batch and prevents queued ones from starting.
func (e *Engine) RunJob(ctx context.Context, job *Job) (*JobResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tasks, err := e.planMapTasks(job)
	if err != nil {
		return nil, err
	}
	jc := e.newJobContext(job)
	if rel, ok := e.runner().(JobReleaser); ok {
		defer rel.ReleaseJob(jc)
	}

	// Create output files: map-side stores get one partition per map task,
	// reduce-side stores one per reduce partition.
	for _, st := range jc.mapStores {
		if _, err := e.FS.Create(st.Path, len(tasks)); err != nil {
			return nil, err
		}
		if err := e.FS.SetSchema(st.Path, st.Schema); err != nil {
			return nil, err
		}
	}
	for _, st := range jc.reduceStores {
		if _, err := e.FS.Create(st.Path, jc.ReduceParts); err != nil {
			return nil, err
		}
		if err := e.FS.SetSchema(st.Path, st.Schema); err != nil {
			return nil, err
		}
	}

	res := &JobResult{JobID: job.ID, StoreBytes: make(map[string]int64)}
	byPart, err := e.runMapPhase(ctx, jc, tasks, res)
	if err != nil {
		return nil, err
	}
	if e.PhaseHook != nil {
		e.PhaseHook(job.ID, "map-done")
	}
	if job.Blocking() != nil {
		res.Stats.HasReduce = true
		if err := e.runReducePhase(ctx, jc, byPart, res); err != nil {
			return nil, err
		}
	}
	if e.PhaseHook != nil {
		e.PhaseHook(job.ID, "job-done")
	}

	// Collect per-store byte counts and classify them for the cost model.
	for _, st := range job.Plan.Sinks() {
		stat, err := e.FS.StatFile(st.Path)
		if err != nil {
			return nil, fmt.Errorf("mapred: job %s: stat output %s: %w", job.ID, st.Path, err)
		}
		res.StoreBytes[st.Path] = stat.Bytes
		onMapSide := job.MapSide(st.ID)
		if st.Injected {
			res.Stats.InjectedStores++
		}
		switch {
		case st.Injected && onMapSide:
			res.Stats.MapStoreBytes += stat.Bytes
			res.InjectedStoreBytes += stat.Bytes
		case st.Injected:
			res.Stats.ReduceStoreBytes += stat.Bytes
			res.InjectedStoreBytes += stat.Bytes
		case onMapSide && job.Blocking() != nil:
			// A primary store on the map side of a reduce job still costs
			// map-phase writes.
			res.Stats.MapStoreBytes += stat.Bytes
		default:
			res.Stats.OutputBytes += stat.Bytes
		}
	}
	res.Times = e.Cluster.Simulate(res.Stats)
	return res, nil
}

// planMapTasks enumerates (load, partition) pairs.
func (e *Engine) planMapTasks(job *Job) ([]mapTask, error) {
	var tasks []mapTask
	for _, load := range job.Plan.Sources() {
		n, err := e.FS.Partitions(load.Path)
		if err != nil {
			return nil, fmt.Errorf("mapred: job %s: input %s: %w", job.ID, load.Path, err)
		}
		for p := 0; p < n; p++ {
			tasks = append(tasks, mapTask{loadID: load.ID, partition: p, taskIdx: len(tasks)})
		}
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("mapred: job %s has no input partitions", job.ID)
	}
	return tasks, nil
}

// splitStores partitions the job's stores into map-side and reduce-side.
func splitStores(job *Job) (mapStores, reduceStores []*physical.Operator) {
	for _, st := range job.Plan.Sinks() {
		if job.MapSide(st.ID) {
			mapStores = append(mapStores, st)
		} else {
			reduceStores = append(reduceStores, st)
		}
	}
	return mapStores, reduceStores
}

// runner returns the installed TaskRunner, defaulting to in-process.
func (e *Engine) runner() TaskRunner {
	if e.Runner != nil {
		return e.Runner
	}
	return localRunner{e}
}

// newJobContext compiles the engine-side JobContext, wiring the engine's
// shared run-length hint and test hooks into it.
func (e *Engine) newJobContext(job *Job) *JobContext {
	jc := NewJobContext(job, e.ReduceTasks, !e.DisableCombiner)
	jc.hint = &e.runHint
	jc.mapHook = e.mapTaskHook
	return jc
}

// runMapPhase executes all map tasks through the TaskRunner (bounded
// parallelism for the in-process runner; remote runners impose their own),
// commits the map-side store partitions deterministically, and returns each
// reduce partition's shuffle run refs in task order. Task failures are all
// collected — a multi-task failure reports every task's error (in task
// order), not an arbitrary one — except cancellation, which reports the
// context error alone.
func (e *Engine) runMapPhase(ctx context.Context, jc *JobContext, tasks []mapTask, res *JobResult) ([][]RunRef, error) {
	runner := e.runner()
	results := make([]*MapResult, len(tasks))
	taskErrs := make([]error, len(tasks))

	par := e.MapParallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for _, task := range tasks {
		wg.Add(1)
		go func(task mapTask) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				taskErrs[task.taskIdx] = err
				return
			}
			spec := MapTaskSpec{TaskIdx: task.taskIdx, LoadID: task.loadID, Partition: task.partition}
			mr, err := runner.RunMapTask(ctx, jc, spec)
			if err != nil {
				taskErrs[task.taskIdx] = fmt.Errorf("mapred: job %s map task %d: %w", jc.Job.ID, task.taskIdx, err)
				return
			}
			results[task.taskIdx] = mr
		}(task)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapred: job %s: %w", jc.Job.ID, err)
	}
	if err := errors.Join(taskErrs...); err != nil {
		return nil, err
	}

	// Commit map-side store partitions and group shuffle runs by reduce
	// partition, in task order.
	byPart := make([][]RunRef, jc.ReduceParts)
	var totalRecs, nRuns int
	for idx, mr := range results {
		for path, sp := range mr.Stores {
			if err := e.FS.CommitPartition(path, idx, sp.Data, sp.Records); err != nil {
				return nil, err
			}
		}
		for _, ref := range mr.Runs {
			byPart[ref.Part] = append(byPart[ref.Part], ref)
			totalRecs += ref.Records
			nRuns++
		}
		res.Stats.InputBytes += mr.InputBytes
		res.Stats.ShuffleBytes += mr.ShuffleBytes
	}
	if nRuns > 0 {
		e.runHint.Store(int64(totalRecs/nRuns + 1))
	}
	return byPart, nil
}

// blockingKey computes the shuffle key for one record entering the blocking
// operator on the given input tag.
func blockingKey(b *physical.Operator, tag int, t types.Tuple) types.Tuple {
	switch b.Kind {
	case physical.OpJoin, physical.OpCoGroup:
		return exec.EvalKey(b.Keys[tag], t)
	case physical.OpGroup:
		if len(b.Keys) == 0 || len(b.Keys[0]) == 0 {
			return types.Tuple{} // GROUP ALL
		}
		return exec.EvalKey(b.Keys[0], t)
	case physical.OpDistinct:
		return t
	case physical.OpOrder:
		key := make(types.Tuple, len(b.SortCols))
		for i, sc := range b.SortCols {
			if sc.Index < len(t) {
				key[i] = t[sc.Index]
			} else {
				key[i] = types.Null()
			}
		}
		return key
	case physical.OpLimit:
		return types.Tuple{}
	default:
		return types.Tuple{}
	}
}

// blockingKeyInto is blockingKey evaluated into a reusable scratch tuple.
// The caller must not retain the result across calls (the combiner clones
// it when a new group is first seen).
func blockingKeyInto(dst types.Tuple, b *physical.Operator, tag int, t types.Tuple) types.Tuple {
	switch b.Kind {
	case physical.OpJoin, physical.OpCoGroup:
		return exec.EvalKeyInto(dst, b.Keys[tag], t)
	case physical.OpGroup:
		if len(b.Keys) == 0 || len(b.Keys[0]) == 0 {
			return dst[:0] // GROUP ALL
		}
		return exec.EvalKeyInto(dst, b.Keys[0], t)
	default:
		return append(dst[:0], blockingKey(b, tag, t)...)
	}
}

// runReducePhase runs every reduce partition through the TaskRunner and
// commits the returned store payloads. Each partition k-way-merges its
// pre-sorted map runs, and partitions execute on the ReduceParallelism
// worker pool — partitions are independent (distinct keys, distinct output
// file partitions), so concurrency changes wall clock only.
func (e *Engine) runReducePhase(ctx context.Context, jc *JobContext, byPart [][]RunRef, res *JobResult) error {
	runner := e.runner()
	commit := func(r int, rr *ReduceResult) error {
		for path, sp := range rr.Stores {
			if err := e.FS.CommitPartition(path, r, sp.Data, sp.Records); err != nil {
				return err
			}
		}
		return nil
	}

	workers := e.ReduceParallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jc.ReduceParts {
		workers = jc.ReduceParts
	}
	partErrs := make([]error, jc.ReduceParts)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for r := 0; r < jc.ReduceParts; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				partErrs[r] = err
				return
			}
			rr, err := runner.RunReducePartition(ctx, jc, r, byPart[r])
			if err != nil {
				partErrs[r] = err
				return
			}
			partErrs[r] = commit(r, rr)
		}(r)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("mapred: job %s: %w", jc.Job.ID, err)
	}
	return errors.Join(partErrs...)
}

// applyBlocking walks runs of equal keys and emits the blocking operator's
// output tuples. Each emitted tuple is borrowed, as every pipeline tuple is:
// the reduce-side pipeline ends in Stores, which encode what they receive,
// so a Join's joined row and a Group's or CoGroup's output tuple are one
// scratch tuple per partition, rewritten for the next emit. Their bags are
// windows of the partition's arena and their values the shuffle's own.
func applyBlocking(b *physical.Operator, recs []shuffleRec, emit func(types.Tuple) error) error {
	switch b.Kind {
	case physical.OpLimit:
		n := b.N
		for i := int64(0); i < n && i < int64(len(recs)); i++ {
			if err := emit(recs[i].val); err != nil {
				return err
			}
		}
		return nil
	case physical.OpOrder:
		for _, rec := range recs {
			if err := emit(rec.val); err != nil {
				return err
			}
		}
		return nil
	}

	// Every Group and CoGroup bag is a window of one arena holding the
	// partition's values in shuffle order: a key's records are contiguous,
	// and so are its records of one tag. Each window's capacity ends where
	// it does, so a later Bag.Add copies instead of overwriting the next.
	var arena []types.Tuple
	if b.Kind == physical.OpGroup || b.Kind == physical.OpCoGroup {
		arena = make([]types.Tuple, len(recs))
		for i := range recs {
			arena[i] = recs[i].val
		}
	}
	var out types.Tuple
	for start := 0; start < len(recs); {
		end := start + 1
		for end < len(recs) && types.CompareTuples(recs[end].key, recs[start].key) == 0 {
			end++
		}
		run := recs[start:end]
		switch b.Kind {
		case physical.OpDistinct:
			if err := emit(run[0].val); err != nil {
				return err
			}
		case physical.OpGroup:
			bag := types.BagOf(arena[start:end:end]...)
			out = append(out[:0], groupValue(b, run[0].key), types.NewBag(bag))
			if err := emit(out); err != nil {
				return err
			}
		case physical.OpCoGroup:
			// As in Pig, a key holding a null matches no key of another
			// input: each input's null-keyed records form their own group.
			for from := 0; from < len(run); {
				to := len(run)
				if exec.KeyHasNull(run[from].key) {
					tag := run[from].tag
					to = from + sort.Search(len(run)-from, func(i int) bool { return run[from+i].tag > tag })
				}
				out = append(out[:0], groupValue(b, run[from].key))
				s := from
				for tag := range b.Inputs {
					e := s
					for e < to && run[e].tag == tag {
						e++
					}
					bag := types.BagOf()
					if e > s {
						bag = types.BagOf(arena[start+s : start+e : start+e]...)
					}
					out = append(out, types.NewBag(bag))
					s = e
				}
				if err := emit(out); err != nil {
					return err
				}
				from = to
			}
		case physical.OpJoin:
			// Tags are sorted within the run; find the tag boundary.
			split := sort.Search(len(run), func(i int) bool { return run[i].tag > 0 })
			left, right := run[:split], run[split:]
			for _, l := range left {
				for _, rt := range right {
					out = append(append(out[:0], l.val...), rt.val...)
					if err := emit(out); err != nil {
						return err
					}
				}
			}
		default:
			return fmt.Errorf("unsupported blocking operator %s", b.Kind)
		}
		start = end
	}
	return nil
}

// applyCombined walks runs of equal keys, merging combiner partials and
// emitting the finalized aggregate tuple per group.
func applyCombined(comb *combineSpec, recs []shuffleRec, emit func(types.Tuple) error) error {
	for start := 0; start < len(recs); {
		end := start + 1
		for end < len(recs) && types.CompareTuples(recs[end].key, recs[start].key) == 0 {
			end++
		}
		merged := recs[start].val
		for _, rec := range recs[start+1 : end] {
			merged = comb.mergePartials(merged, rec.val)
		}
		if err := emit(comb.finalize(recs[start].key, merged)); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// groupValue renders the group column: the bare key for single-key groups, a
// tuple for composite keys, and "all" for GROUP ALL.
func groupValue(b *physical.Operator, key types.Tuple) types.Value {
	if b.Kind == physical.OpGroup && (len(b.Keys) == 0 || len(b.Keys[0]) == 0) {
		return types.NewString("all")
	}
	if len(key) == 1 {
		return key[0]
	}
	return types.NewTuple(key)
}
