package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	restore "repro"
	"repro/internal/dfs"
	"repro/internal/mapred"
)

// Span names. One per seam the program already exports; spans inside the
// program (parse, match, lease, WAL append...) are ROADMAP item 2 and are
// covered here by the direct timed calls of layers.go instead.
const (
	spanClient   = "client.round_trip"
	spanHandler  = "server.handler"
	spanWorkflow = "mapred.run_workflow"
	// Phase spans come from Engine.PhaseHook: a job's output-file creation,
	// map tasks and map-side commits, then its reduce partitions and commits.
	spanMapPhase    = "mapred.map_phase"
	spanReducePhase = "mapred.reduce_phase"
	// Task spans exist only for the sampled workflows of the probe slot.
	spanMapTask = "mapred.map_task"
	spanReduce  = "mapred.reduce_part"
	// spanEncode is tracing's own cost, not the program's: the only exported
	// reduce kernel (mapred.ExecReducePartition) takes a fetch transport, so
	// the traced runner must serialize each map task's shuffle runs for it.
	// The untraced in-process path hands the records over by reference.
	spanEncode = "bench.run_encode"
)

// Header names the traced client uses to tie a request to its op: the
// client span's ID and the script's out/ path (the workflow the backend
// wrapper later sees stores into that path).
const (
	hdrSpan = "X-Bench-Span"
	hdrOut  = "X-Bench-Out"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // the query's op index, shared by its spans
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer was created
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0 time.Time
	// armed is set only while a measured segment runs: set-up and warm-up
	// traffic goes through the same wrappers and must leave no spans.
	armed atomic.Bool

	mu    sync.Mutex
	spans []span
	byOut map[string]int // out/ path of an in-flight query -> handler span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byOut: make(map[string]int)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (-1 for a root) and returns its ID. The op
// index is inherited from the parent when op < 0.
func (t *tracer) begin(name string, parent, op int) int {
	if !t.armed.Load() {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if op < 0 && parent >= 0 {
		op = t.spans[parent].Op
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// drop discards a span that was opened but never ran.
func (t *tracer) drop(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Parent, t.spans[id].Name = -1, ""
	t.mu.Unlock()
}

// handler interposes on Server.Handler(): one span per traced request,
// parented to the client span named in the request header.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(hdrSpan))
		if err != nil {
			next.ServeHTTP(w, r) // set-up and sampler traffic is not traced
			return
		}
		id := t.begin(spanHandler, parent, -1)
		out := r.Header.Get(hdrOut)
		if out != "" {
			t.mu.Lock()
			t.byOut[out] = id
			t.mu.Unlock()
		}
		next.ServeHTTP(w, r)
		t.end(id)
		if out != "" {
			t.mu.Lock()
			delete(t.byOut, out)
			t.mu.Unlock()
		}
	})
}

// tracedBackend interposes on restore.Backend: one span per workflow that
// reaches the engine, one per job phase (from Engine.PhaseHook), and the byte
// counters the engine reports.
//
// Workflows run on the backend's own engines, configured like the System's:
// PhaseHook names only a job ID, which two concurrent workflows share, so
// each engine belongs to one slot that knows which workflow it is running.
// The plain slots leave Engine.Runner nil — the in-process runner with its
// zero-copy shuffle hand-off, exactly what an untraced daemon executes. Every
// probeEvery-th workflow instead runs on the probe slot, whose engine has the
// task-timing runner installed; only those workflows have task spans.
type tracedBackend struct {
	t     *tracer
	slots chan *engineSlot // plain slots
	probe chan *engineSlot // the one probe slot
	n     atomic.Int64

	mu sync.Mutex
	c  counts // only the backend's own counters (cWorkflows...) are set
}

// probeEvery is the sampling period of task-level tracing. The probe's
// reduce side pays for serializing shuffle runs (see spanEncode), up to a
// fifth of a shuffle-heavy small job's time; sampling keeps the traced pass
// within a tenth of the untraced one.
const probeEvery = 5

// engineSlot is one engine and the workflow it is currently running.
type engineSlot struct {
	eng      *mapred.Engine
	t        *tracer
	probe    bool
	workflow int // span of the running workflow
	phase    int // open phase span, -1 when none
}

// read copies the backend's counters into a reading.
func (b *tracedBackend) read(c *counts) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := cWorkflows; i < nCounters; i++ {
		c[i] = b.c[i]
	}
}

func (sl *engineSlot) phaseHook(_ string, phase string) {
	sl.t.end(sl.phase)
	switch phase {
	case "map-done":
		sl.phase = sl.t.begin(spanReducePhase, sl.workflow, -1)
	default: // "job-done": the next job, if any, starts its map phase now
		sl.phase = sl.t.begin(spanMapPhase, sl.workflow, -1)
	}
}

func (b *tracedBackend) RunWorkflow(ctx context.Context, w *mapred.Workflow) (*mapred.WorkflowResult, error) {
	var sl *engineSlot
	if b.n.Add(1)%probeEvery == 0 {
		select {
		case sl = <-b.probe:
		default:
		}
	}
	if sl == nil {
		sl = <-b.slots
	}
	parent := -1
	b.t.mu.Lock()
	for _, j := range w.Jobs {
		for _, out := range j.OutputPaths() {
			if id, ok := b.t.byOut[out]; ok {
				parent = id
			}
		}
	}
	b.t.mu.Unlock()
	sl.workflow = b.t.begin(spanWorkflow, parent, -1)
	sl.phase = b.t.begin(spanMapPhase, sl.workflow, -1)

	res, err := sl.eng.RunWorkflow(ctx, w)

	// The phase opened after the last job-done never ran.
	b.t.drop(sl.phase)
	b.t.end(sl.workflow)
	probed := sl.probe
	if probed {
		b.probe <- sl
	} else {
		b.slots <- sl
	}
	if err == nil {
		b.mu.Lock()
		b.c[cWorkflows]++
		if probed {
			b.c[cProbed]++
		}
		b.c[cEngineInput] += res.TotalInputBytes
		b.c[cEngineShuffle] += res.TotalShuffleBytes
		b.c[cEngineOutput] += res.TotalOutputBytes
		b.c[cEngineInjected] += res.TotalInjectedBytes
		b.mu.Unlock()
	}
	return res, err
}

// tracedRunner interposes on mapred.TaskRunner for the probe slot: it times
// every map task and reduce partition and delegates to the exported kernels
// the in-process runner and the fleet workers share.
type tracedRunner struct {
	t  *tracer
	fs *dfs.FS
	sl *engineSlot

	mu   sync.Mutex
	runs map[runKey][]byte
}

type runKey struct {
	jc         *mapred.JobContext
	task, part int
}

func (r *tracedRunner) RunMapTask(ctx context.Context, jc *mapred.JobContext, spec mapred.MapTaskSpec) (*mapred.MapResult, error) {
	parent := r.sl.phase
	id := r.t.begin(spanMapTask, parent, -1)
	input, err := r.fs.ReadPartitionRaw(jc.Job.Plan.Op(spec.LoadID).Path, spec.Partition)
	if err != nil {
		return nil, err
	}
	mr, err := mapred.ExecMapTask(ctx, jc, spec, input)
	r.t.end(id)
	if err != nil || len(mr.Runs) == 0 {
		return mr, err
	}
	id = r.t.begin(spanEncode, parent, -1)
	enc := mr.EncodedRuns()
	r.mu.Lock()
	for i, ref := range mr.Runs {
		r.runs[runKey{jc, ref.TaskIdx, ref.Part}] = enc[i]
	}
	r.mu.Unlock()
	r.t.end(id)
	return mr, nil
}

func (r *tracedRunner) RunReducePartition(ctx context.Context, jc *mapred.JobContext, part int, refs []mapred.RunRef) (*mapred.ReduceResult, error) {
	id := r.t.begin(spanReduce, r.sl.phase, -1)
	defer r.t.end(id)
	fetch := mapred.NewFetchTransport(func(_ context.Context, ref mapred.RunRef) ([]byte, error) {
		k := runKey{jc, ref.TaskIdx, ref.Part}
		r.mu.Lock()
		defer r.mu.Unlock()
		b := r.runs[k]
		delete(r.runs, k)
		return b, nil
	})
	return mapred.ExecReducePartition(ctx, jc, part, refs, fetch)
}

// ReleaseJob drops runs a failed job never fetched (mapred.JobReleaser).
func (r *tracedRunner) ReleaseJob(jc *mapred.JobContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.runs {
		if k.jc == jc {
			delete(r.runs, k)
		}
	}
}

// instrument installs the backend wrapper on a System.
func (t *tracer) instrument(sys *restore.System) *tracedBackend {
	b := &tracedBackend{t: t, slots: make(chan *engineSlot, hostShards), probe: make(chan *engineSlot, 1)}
	newSlot := func(probe bool) *engineSlot {
		own := sys.Engine()
		sl := &engineSlot{t: t, probe: probe, phase: -1, eng: &mapred.Engine{
			FS: own.FS, Cluster: own.Cluster, ReduceTasks: own.ReduceTasks,
			MapParallelism: own.MapParallelism, ReduceParallelism: own.ReduceParallelism,
			DisableCombiner: own.DisableCombiner,
		}}
		sl.eng.PhaseHook = sl.phaseHook
		if probe {
			sl.eng.Runner = &tracedRunner{t: t, fs: sys.FS(), sl: sl, runs: make(map[runKey][]byte)}
		}
		return sl
	}
	for i := 0; i < hostShards; i++ {
		b.slots <- newSlot(false)
	}
	b.probe <- newSlot(true)
	sys.SetBackend(b)
	return b
}

// ---- analysis ----

// union returns the total length of the union of [start,end) intervals,
// clipped to [lo,hi).
func union(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// opBudget is one query's blocking path split into self times by span name:
// a span's self time is its duration minus the part its children cover, and
// the time parallel children cover together is shared among their names in
// proportion to their summed durations. The values add up to the client
// round trip exactly.
type opBudget map[string]time.Duration

// budgets computes the per-op self-time split of every traced query.
func (t *tracer) budgets() map[int]opBudget {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(map[int]opBudget)
	var walk func(id int, b opBudget)
	walk = func(id int, b opBudget) {
		s := spans[id]
		kids := children[id]
		if len(kids) == 0 {
			b[s.Name] += s.dur()
			return
		}
		iv := make([][2]int64, len(kids))
		for i, k := range kids {
			iv[i] = [2]int64{spans[k].Start, spans[k].End}
		}
		covered := union(iv, s.Start, s.End)
		b[s.Name] += s.dur() - time.Duration(covered)
		// Share the covered time among the children by their own splits.
		sub := make(opBudget)
		var sum time.Duration
		for _, k := range kids {
			walk(k, sub)
		}
		for _, d := range sub {
			sum += d
		}
		for name, d := range sub {
			if sum > 0 {
				b[name] += time.Duration(float64(covered) * float64(d) / float64(sum))
			}
		}
	}
	for _, s := range spans {
		if s.Parent == -1 && s.Name == spanClient && s.End > 0 {
			b := make(opBudget)
			walk(s.ID, b)
			out[s.Op] = b
		}
	}
	return out
}

// finished returns the spans that ran to completion.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Name != "" && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// byName returns the durations of every finished span with this name.
func (t *tracer) byName(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// childDurations groups the durations of name-spans by their parent span.
func (t *tracer) childDurations(name string) map[int][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int][]time.Duration)
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out[s.Parent] = append(out[s.Parent], s.dur())
		}
	}
	return out
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Budget   map[string]float64 `json:"budgetMsP50"`
	Direct   map[string]float64 `json:"directMsP50"`
	Metrics  map[string]metric  `json:"metrics"`
	Spans    []span             `json:"spans"`
}

func writeTraceFile(dir string, tf *traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), data, 0o644)
}
