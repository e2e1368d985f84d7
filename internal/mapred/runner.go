package mapred

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/physical"
	"repro/internal/types"
)

// JobContext is the compiled per-job execution state shared by every task of
// one job: the job itself, the final reduce partition count, the combiner
// decision, the compiled shuffle comparator, and the map/reduce store split.
// The engine builds one per RunJob; remote workers rebuild an equivalent one
// from the decoded wire job via NewJobContext — both sides compile from the
// same Job, so task execution agrees bit for bit.
type JobContext struct {
	// Job is the validated job the tasks belong to.
	Job *Job
	// ReduceParts is the number of reduce partitions the shuffle hashes
	// into, after the single-partition clamp for Order/Limit jobs.
	ReduceParts int

	comb         *combineSpec
	cmp          *jobComparator
	mapStores    []*physical.Operator
	reduceStores []*physical.Operator
	include      map[int]bool // reduce-side pipeline ops (blocking + descendants)
	hint         *atomic.Int64
	mapHook      func(ctx context.Context, taskIdx int) error
}

// NewJobContext compiles the shared per-job execution state. reduceParts is
// clamped to at least 1 and to exactly 1 for Order/Limit jobs (total order
// and exact limits need a single partition), matching the engine's own
// planning; combine enables map-side combining when the job's shape supports
// it (the decision is recomputed deterministically from the plan, so a
// coordinator and its workers always agree).
func NewJobContext(job *Job, reduceParts int, combine bool) *JobContext {
	if reduceParts < 1 {
		reduceParts = 1
	}
	if b := job.Blocking(); b != nil && (b.Kind == physical.OpOrder || b.Kind == physical.OpLimit) {
		reduceParts = 1
	}
	jc := &JobContext{Job: job, ReduceParts: reduceParts, hint: new(atomic.Int64)}
	if combine {
		jc.comb = detectCombiner(job)
	}
	jc.cmp = compileComparator(job.Blocking())
	jc.mapStores, jc.reduceStores = splitStores(job)
	if b := job.Blocking(); b != nil {
		jc.include = make(map[int]bool, len(job.reduceSide)+1)
		jc.include[b.ID] = true
		for id := range job.reduceSide {
			jc.include[id] = true
		}
	}
	return jc
}

// Combining reports whether map tasks pre-aggregate with the combiner. A
// coordinator ships this to workers so their NewJobContext call reproduces
// the same decision even if their combiner default ever diverges.
func (jc *JobContext) Combining() bool { return jc.comb != nil }

// MapTaskSpec identifies one unit of map work: one partition of one Load
// operator's input file. TaskIdx is the job-wide task index that seeds the
// strict shuffle order and names the task's map-side store partitions.
type MapTaskSpec struct {
	// TaskIdx is the dense per-job task index.
	TaskIdx int `json:"task"`
	// LoadID is the Load operator's ID in the job plan.
	LoadID int `json:"load"`
	// Partition is the input file partition this task streams.
	Partition int `json:"part"`
}

// StorePart is one committed-to-be partition of one store file: the encoded
// payload in the DFS partition wire format plus its record count.
type StorePart struct {
	// Data is the uvarint-framed EncodeTuple payload.
	Data []byte `json:"data"`
	// Records is the number of tuples in Data.
	Records int64 `json:"records"`
}

// RunRef names one sorted shuffle run: the map task that produced it, the
// reduce partition it belongs to, and where it lives — inline records for
// the in-process transport, or a worker address for remote pulls.
type RunRef struct {
	// TaskIdx is the producing map task's index.
	TaskIdx int `json:"task"`
	// Part is the reduce partition the run belongs to.
	Part int `json:"part"`
	// Records is the run's record count; transports validate fetched runs
	// against it so torn pulls surface as errors.
	Records int `json:"records"`
	// Bytes is the encoded run length (remote runs only).
	Bytes int64 `json:"bytes,omitempty"`
	// Addr is the base URL of the worker holding the run (remote runs only).
	Addr string `json:"addr,omitempty"`

	recs []shuffleRec // in-process runs only
}

// MapResult is one map task's output: per-store partition payloads, the
// sorted shuffle runs it produced, and the byte counters the cost model
// charges. The coordinator commits Stores (task idx == partition idx) and
// hands Runs to the reduce phase.
type MapResult struct {
	// Stores maps store path to this task's partition payload.
	Stores map[string]StorePart `json:"stores"`
	// Runs holds one ref per non-empty reduce partition.
	Runs []RunRef `json:"runs"`
	// InputBytes is the task's input partition size.
	InputBytes int64 `json:"inputBytes"`
	// ShuffleBytes is the encoded size of the task's shuffle output.
	ShuffleBytes int64 `json:"shuffleBytes"`
}

// EncodedRuns serializes each of the result's shuffle runs with the binary
// run codec, indexed like Runs, and stamps each ref's Bytes. Workers call it
// to retain runs for peer pulls; the in-memory records stay attached too.
func (mr *MapResult) EncodedRuns() [][]byte {
	out := make([][]byte, len(mr.Runs))
	for i := range mr.Runs {
		out[i] = encodeRun(nil, mr.Runs[i].recs)
		mr.Runs[i].Bytes = int64(len(out[i]))
	}
	return out
}

// ReduceResult is one reduce partition's output: per-store payloads for the
// partition the coordinator commits.
type ReduceResult struct {
	// Stores maps store path to this partition's payload.
	Stores map[string]StorePart `json:"stores"`
}

// TaskRunner executes individual tasks on behalf of the engine coordinator.
// The default implementation runs them in-process on the engine's pools;
// internal/fleet ships them to worker processes. Either way the engine keeps
// planning, output-file creation, partition commits, and stats — a runner
// only computes.
type TaskRunner interface {
	// RunMapTask executes one map task and returns its buffered outputs.
	RunMapTask(ctx context.Context, jc *JobContext, spec MapTaskSpec) (*MapResult, error)
	// RunReducePartition merges the partition's shuffle runs, applies the
	// blocking operator and reduce-side pipeline, and returns the outputs.
	RunReducePartition(ctx context.Context, jc *JobContext, part int, refs []RunRef) (*ReduceResult, error)
}

// JobReleaser is an optional TaskRunner extension: the engine calls
// ReleaseJob when a job finishes (success or failure) so remote runners can
// free per-job state such as retained shuffle runs and cached wire plans.
// The JobContext identifies the job run — job IDs alone are not unique
// across concurrently executing workflows.
type JobReleaser interface {
	// ReleaseJob frees any state retained for the job run.
	ReleaseJob(jc *JobContext)
}

// ShuffleTransport materializes the sorted shuffle runs a reduce partition
// consumes. PR 9's k-way merge sits directly on its output: runs come back
// pre-sorted in ref order and are merged with the job comparator unchanged.
type ShuffleTransport interface {
	// FetchRuns returns one record slice per ref, in ref order.
	FetchRuns(ctx context.Context, refs []RunRef) ([][]shuffleRec, error)
}

// memShuffle is the in-process transport: runs are handed over as the map
// tasks' own record slices, zero-copy.
type memShuffle struct{}

func (memShuffle) FetchRuns(_ context.Context, refs []RunRef) ([][]shuffleRec, error) {
	out := make([][]shuffleRec, len(refs))
	for i, ref := range refs {
		if ref.recs == nil && ref.Records > 0 {
			return nil, fmt.Errorf("mapred: run of task %d part %d has no in-memory records (remote ref on the in-process transport)", ref.TaskIdx, ref.Part)
		}
		out[i] = ref.recs
	}
	return out, nil
}

// RunFetcher retrieves the encoded bytes of one remote shuffle run.
type RunFetcher func(ctx context.Context, ref RunRef) ([]byte, error)

// NewFetchTransport adapts a byte-level run fetcher into a ShuffleTransport:
// fetched runs are decoded with the run codec and validated against the
// ref's record count, so a torn or truncated pull surfaces as an error
// instead of silent data loss.
func NewFetchTransport(f RunFetcher) ShuffleTransport { return fetchTransport{f} }

type fetchTransport struct{ f RunFetcher }

func (ft fetchTransport) FetchRuns(ctx context.Context, refs []RunRef) ([][]shuffleRec, error) {
	out := make([][]shuffleRec, len(refs))
	for i, ref := range refs {
		data, err := ft.f(ctx, ref)
		if err != nil {
			return nil, fmt.Errorf("mapred: fetch run task %d part %d from %s: %w", ref.TaskIdx, ref.Part, ref.Addr, err)
		}
		recs, err := decodeRun(data, getRecSlice(ref.Records))
		if err != nil {
			return nil, fmt.Errorf("mapred: run task %d part %d from %s: %w", ref.TaskIdx, ref.Part, ref.Addr, err)
		}
		if len(recs) != ref.Records {
			return nil, fmt.Errorf("mapred: torn shuffle run task %d part %d from %s: got %d records, want %d", ref.TaskIdx, ref.Part, ref.Addr, len(recs), ref.Records)
		}
		out[i] = recs
	}
	return out, nil
}

// localRunner is the default TaskRunner: tasks run in this process against
// the engine's DFS and buffer pools.
type localRunner struct{ e *Engine }

func (lr localRunner) RunMapTask(ctx context.Context, jc *JobContext, spec MapTaskSpec) (*MapResult, error) {
	input, err := lr.e.FS.ReadPartitionRaw(jc.Job.Plan.Op(spec.LoadID).Path, spec.Partition)
	if err != nil {
		return nil, err
	}
	return ExecMapTask(ctx, jc, spec, input)
}

func (lr localRunner) RunReducePartition(ctx context.Context, jc *JobContext, part int, refs []RunRef) (*ReduceResult, error) {
	return ExecReducePartition(ctx, jc, part, refs, memShuffle{})
}

// shuffleEmitter accumulates one map task's shuffle output: hash-partitioned
// into ReduceParts runs, combiner-folded when enabled, ordered by the strict
// (key, tag, seq) order with seq seeded from the task index.
type shuffleEmitter struct {
	jc         *JobContext
	blocking   *physical.Operator
	shuffle    [][]shuffleRec
	acc        *combAccumulator
	seq        int64
	taskBase   int64
	keyScratch types.Tuple
	shuffleLen int64
	runHint    int
}

func newShuffleEmitter(jc *JobContext, taskIdx int) *shuffleEmitter {
	em := &shuffleEmitter{
		jc:       jc,
		blocking: jc.Job.Blocking(),
		shuffle:  make([][]shuffleRec, jc.ReduceParts),
		taskBase: int64(taskIdx) << 32,
		runHint:  int(jc.hint.Load()),
	}
	if jc.comb != nil {
		em.acc = newCombAccumulator(jc.comb)
	}
	return em
}

func (em *shuffleEmitter) push(r int, rec shuffleRec) {
	run := em.shuffle[r]
	if cap(run) == 0 {
		run = getRecSlice(em.runHint)
	}
	em.shuffle[r] = append(run, rec)
}

func (em *shuffleEmitter) collect(tag int, key, val types.Tuple) {
	r := 0
	if em.jc.ReduceParts > 1 {
		r = int(types.HashTuple(key) % uint64(em.jc.ReduceParts))
	}
	em.push(r, shuffleRec{key: key, tag: tag, seq: em.taskBase | em.seq, val: val})
	em.seq++
	em.shuffleLen += int64(types.EncodedLen(key) + types.EncodedLen(val))
}

func (em *shuffleEmitter) emit(tag int, t types.Tuple) error {
	if em.acc != nil {
		// The combiner clones the key on first sight of a group, so the
		// evaluation can reuse one scratch tuple for the whole task instead
		// of allocating per record.
		em.keyScratch = blockingKeyInto(em.keyScratch, em.blocking, tag, t)
		em.acc.add(em.keyScratch, t)
		return nil
	}
	key := blockingKey(em.blocking, tag, t)
	if em.blocking.Kind == physical.OpJoin && exec.KeyHasNull(key) {
		return nil // null join keys never match
	}
	em.collect(tag, key, t)
	return nil
}

// finish flushes combiner partials, locally sorts every run, and returns
// the per-partition RunRefs.
func (em *shuffleEmitter) finish(taskIdx int) []RunRef {
	if em.acc != nil {
		for _, ks := range em.acc.order {
			st := em.acc.states[ks]
			em.collect(0, st.key, st.vals)
		}
	}
	for r := range em.shuffle {
		sortRun(em.jc.cmp, em.shuffle[r])
	}
	var refs []RunRef
	for r, run := range em.shuffle {
		if len(run) == 0 {
			continue
		}
		refs = append(refs, RunRef{TaskIdx: taskIdx, Part: r, Records: len(run), recs: run})
	}
	return refs
}

// ExecMapTask streams one input partition — raw bytes in the DFS partition
// wire format — through the map-side pipeline, buffering per-store outputs
// and shuffle runs. It is the task body of the in-process runner, which
// passes the committed partition's bytes (FS.ReadPartitionRaw), and of
// remote workers, which pass the bytes the coordinator shipped. Decoded
// strings alias input (types.NewSliceReader), so input must never be
// written again; InputBytes is charged as its length.
func ExecMapTask(ctx context.Context, jc *JobContext, spec MapTaskSpec, input []byte) (*MapResult, error) {
	if jc.mapHook != nil {
		if err := jc.mapHook(ctx, spec.TaskIdx); err != nil {
			return nil, err
		}
	}
	pipe := exec.NewPipeline(jc.Job.Plan, jc.Job.mapSide)

	// Wire map-side stores: every task owns one partition of each.
	outs := make(map[string]*taskOutput, len(jc.mapStores))
	for _, st := range jc.mapStores {
		out := &taskOutput{scratch: getScratch()}
		outs[st.Path] = out
		if err := pipe.SetOutput(st.ID, func(t types.Tuple) error {
			out.write(t)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Wire shuffle collectors on the producers feeding the blocking op.
	var em *shuffleEmitter
	if blocking := jc.Job.Blocking(); blocking != nil {
		em = newShuffleEmitter(jc, spec.TaskIdx)
		for tag, inID := range blocking.Inputs {
			tag := tag
			if err := pipe.SetOutput(inID, func(t types.Tuple) error {
				return em.emit(tag, t)
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := pipe.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline for %s: %w", jc.Job.ID, err)
	}

	// Stream the input partition through the pipeline, checking for
	// cancellation every batch of records.
	r := types.NewSliceReader(input)
	n := 0
	for {
		t, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := pipe.Push(spec.LoadID, t); err != nil {
			return nil, err
		}
		if n++; n&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}

	mr := &MapResult{Stores: make(map[string]StorePart, len(outs)), InputBytes: int64(len(input))}
	for path, out := range outs {
		mr.Stores[path] = StorePart{Data: out.buf, Records: out.records}
		putScratch(out.scratch)
	}
	if em != nil {
		mr.Runs = em.finish(spec.TaskIdx)
		mr.ShuffleBytes = em.shuffleLen
	}
	return mr, nil
}

// ReplayMapTask rebuilds one lost map task's sorted shuffle runs from the
// task's already-materialized injected store partitions instead of re-running
// the map pipeline — ReStore's reuse-as-recovery path. stored maps each
// blocking-input tag to the encoded partition payload of a store that
// materialized exactly that input's tuples for this task (the coordinator
// resolves Split transparency and partition indices). Per-tag relative order
// equals the original emission order, and the (key, tag, seq) shuffle order
// only distinguishes seq within one (key, tag) pair, so the rebuilt runs
// merge into byte-identical reduce output. Decoded strings alias the stored
// payloads, as in ExecMapTask.
func ReplayMapTask(ctx context.Context, jc *JobContext, spec MapTaskSpec, stored map[int][]byte) (*MapResult, error) {
	blocking := jc.Job.Blocking()
	if blocking == nil {
		return nil, fmt.Errorf("mapred: job %s is map-only; nothing to replay", jc.Job.ID)
	}
	em := newShuffleEmitter(jc, spec.TaskIdx)
	for tag := range blocking.Inputs {
		data, ok := stored[tag]
		if !ok {
			return nil, fmt.Errorf("mapred: replay task %d of job %s: no stored input for tag %d", spec.TaskIdx, jc.Job.ID, tag)
		}
		rd := types.NewSliceReader(data)
		n := 0
		for {
			t, err := rd.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("mapred: replay task %d of job %s tag %d: %w", spec.TaskIdx, jc.Job.ID, tag, err)
			}
			if err := em.emit(tag, t); err != nil {
				return nil, err
			}
			if n++; n&0x3ff == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
		}
	}
	return &MapResult{
		Stores:       map[string]StorePart{},
		Runs:         em.finish(spec.TaskIdx),
		ShuffleBytes: em.shuffleLen,
	}, nil
}

// ExecReducePartition fetches the partition's sorted runs through the
// transport, k-way-merges them with the job comparator, applies the blocking
// operator (or combiner finalization) and the reduce-side pipeline, and
// returns the per-store partition payloads. It is the reduce body shared by
// the in-process runner and remote workers.
func ExecReducePartition(ctx context.Context, jc *JobContext, part int, refs []RunRef, tr ShuffleTransport) (*ReduceResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	runs, err := tr.FetchRuns(ctx, refs)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	merged := mergeRuns(jc.cmp, runs, getRecSlice(total))
	rr, err := execReduceBody(jc, part, merged)
	putRecSlice(merged)
	for _, run := range runs {
		putRecSlice(run)
	}
	return rr, err
}

// execReduceBody executes one reduce partition over its merged, sorted
// records: pipeline wiring, the blocking operator (or combiner merge), and
// the per-store output buffers.
func execReduceBody(jc *JobContext, part int, recs []shuffleRec) (*ReduceResult, error) {
	blocking := jc.Job.Blocking()
	pipe := exec.NewPipeline(jc.Job.Plan, jc.include)
	outs := make(map[string]*taskOutput, len(jc.reduceStores))
	for _, st := range jc.reduceStores {
		out := &taskOutput{scratch: getScratch()}
		outs[st.Path] = out
		if err := pipe.SetOutput(st.ID, func(t types.Tuple) error {
			out.write(t)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := pipe.Validate(); err != nil {
		return nil, fmt.Errorf("mapred: job %s reduce pipeline: %w", jc.Job.ID, err)
	}

	if jc.comb != nil {
		// Merge combiner partials per key and emit the Foreach's output
		// directly, bypassing bag construction.
		emitFE := func(t types.Tuple) error { return pipe.PushOutputOf(jc.comb.foreach.ID, t) }
		if err := applyCombined(jc.comb, recs, emitFE); err != nil {
			return nil, fmt.Errorf("mapred: job %s reduce %d: %w", jc.Job.ID, part, err)
		}
	} else {
		emit := func(t types.Tuple) error { return pipe.PushOutputOf(blocking.ID, t) }
		if err := applyBlocking(blocking, recs, emit); err != nil {
			return nil, fmt.Errorf("mapred: job %s reduce %d: %w", jc.Job.ID, part, err)
		}
	}
	rr := &ReduceResult{Stores: make(map[string]StorePart, len(outs))}
	for path, out := range outs {
		rr.Stores[path] = StorePart{Data: out.buf, Records: out.records}
		putScratch(out.scratch)
	}
	return rr, nil
}
