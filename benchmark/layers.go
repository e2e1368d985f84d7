package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	restore "repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/mapred"
	"repro/internal/mrcompile"
	"repro/internal/persist"
	"repro/internal/physical"
	"repro/internal/piglatin"
	"repro/internal/types"
)

// direct holds the direct timed calls into each layer, made on the same op
// sequence as the daemon passes but from this goroutine, with no HTTP,
// scheduler or single-flight in between. Where the program exports no seam
// to interpose on (everything inside System.Prepare and ExecutePrepared),
// this is how the layer budget gets its lines.
type direct struct {
	tally
	parse, build, compile []time.Duration
	jobs                  int
	match, rewrite        []time.Duration
	prepare, prepCached   []time.Duration
	hotServe, hotProbe    []time.Duration
	execute, readRows     []time.Duration
	upload, gc            []time.Duration
	gcEvicted             int
	// total is, per query, the sum of the calls on its blocking path:
	// prepare (or cached prepare) + hot probe + execute + row read-back.
	total []time.Duration
	// firstScript is the first query's text, compiled again by the kernels.
	firstScript string
}

// step executes segment seg of the instance's op sequence by direct calls
// into its System and returns the time it took. Clients' lists are
// interleaved op by op; checkpoints (a daemon-level operation) are skipped.
func (dr *direct) step(in *instance, seg int) (time.Duration, error) {
	lists, err := in.segment(seg)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	for j, more := 0, true; more; j++ {
		more = false
		for _, l := range lists {
			if j < len(l) {
				more = true
				dr.op(in.d.sys, l[j])
			}
		}
	}
	return time.Since(t0), nil
}

func (dr *direct) op(sys *restore.System, o *op) {
	switch o.kind {
	case opUpload:
		t0 := time.Now()
		err := sys.LoadTSV(o.upload.Path, o.upload.Schema, o.upload.Lines, o.upload.Partitions)
		dr.upload = append(dr.upload, time.Since(t0))
		if err != nil {
			dr.fail("direct upload %s: %v", o.upload.Path, err)
		}
	case opGC:
		t0 := time.Now()
		rep := sys.CollectGarbage()
		dr.gc = append(dr.gc, time.Since(t0))
		dr.gcEvicted += len(rep.Evicted)
	case opQuery:
		dr.query(sys, o)
	}
}

func (dr *direct) query(sys *restore.System, o *op) {
	dr.attempted++
	if dr.firstScript == "" {
		dr.firstScript = o.script
	}
	// Front end, stage by stage. These are pure functions of the text; the
	// same work happens again inside PrepareCached below on a cache miss.
	t0 := time.Now()
	script, err := piglatin.Parse(o.script)
	t1 := time.Now()
	if err != nil {
		dr.fail("direct parse: %v", err)
		return
	}
	plan, err := logical.Build(script) // includes logical.Optimize
	t2 := time.Now()
	if err != nil {
		dr.fail("direct build: %v", err)
		return
	}
	wf, err := mrcompile.Compile(plan, "restore/tmp/bench")
	t3 := time.Now()
	if err != nil {
		dr.fail("direct compile: %v", err)
		return
	}
	dr.parse = append(dr.parse, t1.Sub(t0))
	dr.build = append(dr.build, t2.Sub(t1))
	dr.compile = append(dr.compile, t3.Sub(t2))
	dr.jobs += len(wf.Jobs)

	// Matcher and rewriter against the live repository, read-only.
	repo := sys.Repository()
	for _, job := range wf.Jobs {
		var st core.MatchStats
		t := time.Now()
		core.FindBestMatchProbed(job.Plan, repo, nil, &st)
		dr.match = append(dr.match, time.Since(t))
	}
	t := time.Now()
	_, err = (&core.Rewriter{Repo: repo, DryRun: true}).RewriteWorkflow(wf)
	dr.rewrite = append(dr.rewrite, time.Since(t))
	if err != nil {
		dr.fail("direct rewrite: %v", err)
		return
	}

	// The blocking path, in the order Server.runQueryOnce makes the calls.
	var total time.Duration
	t = time.Now()
	p, hit, err := sys.PrepareCached(o.script)
	d := time.Since(t)
	total += d
	if err != nil {
		dr.fail("direct prepare: %v", err)
		return
	}
	if hit {
		dr.prepCached = append(dr.prepCached, d)
	} else {
		dr.prepare = append(dr.prepare, d)
	}

	var rows []string
	var rowsTime time.Duration
	read := func(res *restore.Result) error {
		tr := time.Now()
		lines, err := sys.ReadOutputTSV(res, o.out)
		rowsTime = time.Since(tr)
		rows = lines
		return err
	}
	t = time.Now()
	_, served := sys.TryServeStored(p, nil, read)
	probe := time.Since(t) - rowsTime
	total += probe
	if served {
		dr.hotServe = append(dr.hotServe, probe)
	} else {
		dr.hotProbe = append(dr.hotProbe, probe)
		t = time.Now()
		res, err := sys.ExecutePrepared(p)
		d = time.Since(t)
		total += d
		if err != nil {
			dr.fail("direct execute: %v", err)
			return
		}
		dr.execute = append(dr.execute, d)
		if err := read(res); err != nil {
			dr.fail("direct read rows: %v", err)
			return
		}
	}
	total += rowsTime
	dr.readRows = append(dr.readRows, rowsTime)
	dr.total = append(dr.total, total)
	if !bytes.Equal(rowsTail(rows), o.tail) {
		dr.fail("direct %s: rows differ from the oracle's", o.out)
	}
}

// ---- kernels ----

// kernelInput compiles script and returns the compiled job and Load that read
// the largest input file the script names, with that file's raw partitions:
// the page_views table on the PigMix workloads, the queried data set on churn.
func kernelInput(fs *dfs.FS, script string) (*mapred.Job, *physical.Operator, [][]byte, error) {
	ps, err := piglatin.Parse(script)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, err := logical.Build(ps)
	if err != nil {
		return nil, nil, nil, err
	}
	wf, err := mrcompile.Compile(plan, "restore/tmp/kernel")
	if err != nil {
		return nil, nil, nil, err
	}
	var job *mapred.Job
	var load *physical.Operator
	var size int64
	for _, j := range wf.Jobs {
		for _, src := range j.Plan.Sources() {
			// A later job's input is an earlier job's output and does not exist yet.
			if n := fs.TotalBytes(src.Path); fs.Exists(src.Path) && n > size {
				job, load, size = j, src, n
			}
		}
	}
	if job == nil {
		return nil, nil, nil, fmt.Errorf("the first script loads no stored file")
	}
	n, err := fs.Partitions(load.Path)
	if err != nil {
		return nil, nil, nil, err
	}
	parts := make([][]byte, n)
	for i := range parts {
		if parts[i], err = fs.ReadPartitionRaw(load.Path, i); err != nil {
			return nil, nil, nil, err
		}
	}
	return job, load, parts, nil
}

var kernelSink int

// typesExecKernels times the tuple codec over parts and the map-side
// operators of job, the workload's own compiled first job, whose load reads
// them.
func typesExecKernels(job *mapred.Job, load *physical.Operator, parts [][]byte, out map[string]float64) error {
	// types: decode every record of the raw partitions.
	var tuples []types.Tuple
	var nbytes int64
	alloc0, t0 := totalAlloc(), time.Now()
	for _, data := range parts {
		r := types.NewReader(bytes.NewReader(data))
		for {
			t, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			tuples = append(tuples, t)
		}
		nbytes += int64(len(data))
	}
	el, alloc := time.Since(t0), totalAlloc()-alloc0
	n := float64(len(tuples))
	if n == 0 {
		return fmt.Errorf("kernel input %s is empty", load.Path)
	}
	out["types.decode_ns_per_record"] = float64(el.Nanoseconds()) / n
	out["types.decode_mb_s"] = float64(nbytes) / mb / el.Seconds()
	out["types.decode_alloc_b_per_record"] = float64(alloc) / n

	w := types.NewWriter(io.Discard)
	t0 = time.Now()
	for _, t := range tuples {
		if err := w.Write(t); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	out["types.encode_ns_per_record"] = float64(time.Since(t0).Nanoseconds()) / n

	t0 = time.Now()
	for i := 1; i < len(tuples); i++ {
		kernelSink += types.CompareTuples(tuples[i-1], tuples[i])
	}
	out["types.compare_ns_per_pair"] = ratio(float64(time.Since(t0).Nanoseconds()), n-1)

	// exec: the job's first map-side operator after the Load, and its whole
	// map-side pipeline.
	var first *physical.Operator
	for _, c := range job.Plan.Consumers(load.ID) {
		if job.MapSide(c.ID) && (c.Kind == physical.OpForeach || c.Kind == physical.OpFilter) {
			first = c
			break
		}
	}
	if first != nil {
		var keys []*physicalKey
		if b := job.Blocking(); b != nil {
			for tag, inID := range b.Inputs {
				if inID == first.ID && tag < len(b.Keys) {
					keys = append(keys, &physicalKey{b, tag})
				}
			}
		}
		var scratch types.Tuple
		t0 = time.Now()
		for _, t := range tuples {
			res := t
			if first.Kind == physical.OpForeach {
				var err error
				if res, err = exec.EvalForeach(first, t); err != nil {
					return err
				}
			} else if !first.Pred.Eval(t).Truthy() {
				continue
			}
			for _, k := range keys {
				scratch = exec.EvalKeyInto(scratch, k.op.Keys[k.tag], res)
			}
			kernelSink += len(res)
		}
		out["exec.eval_ns_per_record"] = float64(time.Since(t0).Nanoseconds()) / n
	}

	include := make(map[int]bool)
	for _, o := range job.Plan.Ops() {
		if job.MapSide(o.ID) {
			include[o.ID] = true
		}
	}
	t0 = time.Now()
	pipe := exec.NewPipeline(job.Plan, include)
	sink := func(types.Tuple) error { kernelSink++; return nil }
	for _, o := range job.Plan.Ops() {
		if include[o.ID] && o.Kind == physical.OpStore {
			if err := pipe.SetOutput(o.ID, sink); err != nil {
				return err
			}
		}
	}
	if b := job.Blocking(); b != nil {
		for _, inID := range b.Inputs {
			if err := pipe.SetOutput(inID, sink); err != nil {
				return err
			}
		}
	}
	if err := pipe.Validate(); err != nil {
		return err
	}
	for _, t := range tuples {
		if err := pipe.Push(load.ID, t); err != nil {
			return err
		}
	}
	out["exec.pipeline_ns_per_record"] = float64(time.Since(t0).Nanoseconds()) / n
	return nil
}

// physicalKey names one key list of a blocking operator.
type physicalKey struct {
	op  *physical.Operator
	tag int
}

// dfsKernels times FS.Export and FS.Import of the daemon's final DFS and
// reports its end size.
func dfsKernels(fs *dfs.FS, out map[string]float64) error {
	paths := fs.List("")
	total := fs.TotalBytes(paths...)
	out["dfs.files_end"] = float64(len(paths))
	out["dfs.bytes_end"] = float64(total)
	var buf bytes.Buffer
	t0 := time.Now()
	if err := fs.Export(&buf); err != nil {
		return err
	}
	out["dfs.export_mb_s"] = float64(total) / mb / time.Since(t0).Seconds()
	fresh := dfs.NewSharded(fs.NumShards())
	t0 = time.Now()
	if err := fresh.Import(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	out["dfs.import_mb_s"] = float64(total) / mb / time.Since(t0).Seconds()
	return nil
}

// persistKernels replays the WAL segments of a crash copy (ReplayFile) and
// re-appends the captured records to a fresh segment (Writer.Append+Flush).
func persistKernels(dir, tmp string, out map[string]float64) error {
	segs, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil {
		return err
	}
	sort.Strings(segs)
	var recs []persist.Record
	t0 := time.Now()
	for _, seg := range segs {
		if _, _, err := persist.ReplayFile(seg, func(r persist.Record) error {
			recs = append(recs, r)
			return nil
		}, false); err != nil {
			return err
		}
	}
	el := time.Since(t0)
	if len(recs) == 0 {
		return nil
	}
	out["persist.replay_records_per_s"] = float64(len(recs)) / el.Seconds()

	f, err := os.CreateTemp(tmp, "append-*.log")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	defer os.Remove(name)
	w, err := persist.OpenWriter(name, false)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, r := range recs {
		if _, err := w.Append(r); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		w.Close()
		return err
	}
	out["persist.append_us_per_record"] = us(time.Since(t0)) / float64(len(recs))
	return w.Close()
}
