package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// tracedShare is the part of -seconds the three passes of a traced run
// measure for, together (with -segments, each runs that many). The rest is
// left for their three set-ups. End-to-end metrics never come from here.
const tracedShare = 0.85

// runTraced is the -trace 1 run: an untraced daemon pass (A), a traced daemon
// pass over the same sequence (B: handler, backend and task-runner wrappers
// installed), a pass of direct timed calls into each layer (C), and the
// codec, DFS and WAL kernels. It reports every per-layer metric.
//
// The three passes run side by side on their own set-ups — segment k of A,
// then of B, then of C — so that the minutes-long drifts of a shared host hit
// all three alike: B's throughput over A's is the tracing overhead, and C's
// blocking-path sum over A's latency the budget coverage.
func runTraced(o options, def *workloadDef, e *env, all limit) (*result, error) {
	inA, _, err := setUp(def, e, 1)
	if err != nil {
		return nil, err
	}
	defer inA.close()
	tr := newTracer()
	eB := *e
	eB.tr = tr
	inB, setups, err := setUp(def, &eB, 1)
	if err != nil {
		return nil, err
	}
	defer inB.close()
	inC, _, err := setUp(def, e, 1)
	if err != nil {
		return nil, err
	}
	defer inC.close()

	pa, pb, dr := newPass(inA, nil, false), newPass(inB, tr, true), &direct{}
	var spentC time.Duration
	for {
		if err := pa.step(); err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		if err := pb.step(); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		d, err := dr.step(inC, pa.m.segments-1)
		if err != nil {
			return nil, fmt.Errorf("direct pass: %w", err)
		}
		spentC += d
		if all.reached(pa.m.wall+pb.m.wall+spentC, pa.m.segments) {
			break
		}
	}
	a, b := pa.finish(), pb.finish()
	checks := a.tally
	checks.add(b.tally)
	checks.add(dr.tally)
	res := &result{classes: classTable(inB.classes, b.samples), Info: newRunInfo(o, inB, b, setups)}
	if err := inA.close(); err != nil {
		return nil, err
	}

	// Kernels: codec and operators on C's idle daemon, DFS and WAL on B's.
	vals := make(map[string]float64)
	job, load, parts, err := kernelInput(inC.d.sys.FS(), dr.firstScript)
	if err != nil {
		return nil, fmt.Errorf("types/exec kernels: %w", err)
	}
	if err := typesExecKernels(job, load, parts, vals); err != nil {
		return nil, fmt.Errorf("types/exec kernels: %w", err)
	}
	if err := inC.close(); err != nil {
		return nil, err
	}
	if inB.finish != nil {
		t, err := inB.finish()
		if err != nil {
			return nil, err
		}
		checks.add(t)
	}
	if err := dfsKernels(inB.d.sys.FS(), vals); err != nil {
		return nil, fmt.Errorf("dfs kernels: %w", err)
	}
	if cs := inB.churn; cs != nil {
		if err := persistKernels(cs.crashDir, e.tmp, vals); err != nil {
			return nil, fmt.Errorf("persist kernels: %w", err)
		}
		secs := make([]float64, len(cs.recoveries))
		for i, d := range cs.recoveries {
			secs[i] = d.Seconds()
		}
		vals["persist.recovery_s"] = median(secs)
	}
	if err := inB.close(); err != nil {
		return nil, err
	}

	layerValues(vals, a, b, dr, tr)
	res.Metrics = withUnits(vals, perLayerMetrics)
	res.conclude(checks)

	tf := &traceFile{
		Workload: o.workload, Seed: o.seed,
		Budget: budgetP50(tr), Direct: directP50(dr),
		Metrics: res.Metrics, Spans: tr.finished(),
	}
	if err := writeTraceFile(o.outDir, tf); err != nil {
		return nil, err
	}
	res.Info.TraceFile = filepath.Join(o.outDir, "trace-"+o.workload+".json")
	return res, nil
}

// medianMS is the median of a sample of durations, in milliseconds.
func medianMS(ds []time.Duration) float64 { return quantile(durationsMS(ds), 0.5) }

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// layerValues fills the per-layer metrics that come from the passes.
func layerValues(v map[string]float64, a, b *measured, dr *direct, tr *tracer) {
	c := b.counts
	queries := c.f(cQueries) // what the System counted (deduped joiners excluded)
	clientQueries := float64(len(b.queryLatenciesMS()))
	ops := float64(b.ops())
	var uploads []time.Duration
	var checkpoints []time.Duration
	spanOf := make(map[int]sample)
	for _, s := range b.samples {
		spanOf[s.span] = s
		switch s.kind {
		case opUpload:
			uploads = append(uploads, s.d)
		case opCheckpoint:
			checkpoints = append(checkpoints, s.d)
		}
	}

	// server: the handler wrapper against the client's own clock.
	var overhead, handlers []time.Duration
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name != spanHandler || s.End == 0 {
			continue
		}
		if c, ok := spanOf[s.Parent]; ok && c.kind == opQuery {
			handlers = append(handlers, s.dur())
			overhead = append(overhead, c.d-s.dur())
		}
	}
	tr.mu.Unlock()
	v["server.http_overhead_ms_p50"] = medianMS(overhead)
	v["server.handler_ms_p50"] = medianMS(handlers)
	v["server.response_kb_per_query"] = ratio(float64(b.respBytes)/1024, clientQueries)
	v["server.deduped_ratio"] = b.per(cDeduped, cSubmitted)
	v["server.shed_count"] = c.f(cShed)
	v["server.upload_ms_p50"] = medianMS(uploads)
	v["server.queue_depth_max"] = float64(b.queueDepthMax)

	// restore + front end + core: direct calls, and the System's counters
	// over the traced pass.
	v["restore.prepare_ms_p50"] = medianMS(dr.prepare)
	v["restore.prepare_cached_us_p50"] = 1000 * medianMS(dr.prepCached)
	v["restore.plancache_hit_ratio"] = b.per(cPlanCacheHits, cSubmitted)
	v["restore.hot_serve_ms_p50"] = medianMS(dr.hotServe)
	v["restore.hot_served_ratio"] = b.per(cHotServed, cQueries)
	v["restore.execute_ms_p50"] = medianMS(dr.execute)
	v["restore.read_rows_ms_p50"] = medianMS(dr.readRows)
	v["restore.lease_wait_us_mean"] = b.per(cLeaseWaitNanos, cLeaseWaits) / 1000
	v["restore.gc_ms_per_pass"] = ratio(ms(sum(dr.gc)), float64(len(dr.gc)))
	v["restore.gc_evicted_per_pass"] = ratio(float64(dr.gcEvicted), float64(len(dr.gc)))

	v["piglatin.parse_us_p50"] = 1000 * medianMS(dr.parse)
	v["logical.build_us_p50"] = 1000 * medianMS(dr.build)
	v["mrcompile.compile_us_p50"] = 1000 * medianMS(dr.compile)
	v["mrcompile.jobs_per_query"] = b.per(cJobsCompiled, cQueries)

	v["core.match_us_p50"] = 1000 * medianMS(dr.match)
	v["core.match_probes_per_query"] = b.per(cProbes, cQueries)
	v["core.match_index_hit_ratio"] = ratio(c.f(cIndexHits), c.f(cIndexHits)+c.f(cFallbackScans))
	v["core.match_fallback_scans_per_query"] = b.per(cFallbackScans, cQueries)
	v["core.rewrite_us_p50"] = 1000 * medianMS(dr.rewrite)
	v["core.whole_job_reuses_per_query"] = b.per(cWholeReuses, cQueries)
	v["core.sub_job_reuses_per_query"] = b.per(cSubReuses, cQueries)
	v["core.saved_mb_per_query"] = b.per(cSavedBytes, cQueries) / mb
	v["core.registered_per_query"] = b.per(cRegistered, cQueries)
	v["core.rejected_per_query"] = b.per(cRejected, cQueries)
	nUploads := float64(len(uploads))
	v["core.evict_scans_per_upload"] = ratio(c.f(cEvictScans), nUploads)
	v["core.evict_probes_per_upload"] = ratio(c.f(cEvictProbes), nUploads)
	v["core.evicted_per_upload"] = ratio(c.f(cEvicted), nUploads)
	v["core.repository_entries_end"] = float64(b.repoEntries)

	// mapred: workflow spans of every query; task spans of the sampled
	// (probed) workflows, scaled to a query by workflows per query.
	workflows := tr.byName(spanWorkflow)
	maps, reduces := tr.childDurations(spanMapTask), tr.childDurations(spanReduce)
	var mapSum, reduceSum time.Duration
	var nMaps int
	var stragglers []float64
	for _, ds := range maps {
		mapSum += sum(ds)
		nMaps += len(ds)
		if xs := durationsMS(ds); len(xs) > 1 && quantile(xs, 0.5) > 0 {
			stragglers = append(stragglers, xs[len(xs)-1]/quantile(xs, 0.5))
		}
	}
	for _, ds := range reduces {
		reduceSum += sum(ds)
	}
	var coord time.Duration
	for _, bud := range tr.budgets() {
		coord += bud[spanWorkflow]
	}
	perProbed := ratio(b.per(cWorkflows, cQueries), c.f(cProbed))
	v["mapred.run_workflow_ms_p50"] = medianMS(workflows)
	v["mapred.jobs_executed_per_query"] = b.per(cJobsExecuted, cQueries)
	v["mapred.map_tasks_per_query"] = float64(nMaps) * perProbed
	v["mapred.map_task_ms_sum_per_query"] = ms(mapSum) * perProbed
	v["mapred.reduce_part_ms_sum_per_query"] = ms(reduceSum) * perProbed
	v["mapred.coord_self_ms_per_query"] = ratio(ms(coord), queries)
	v["mapred.straggler_ratio"] = median(stragglers)
	v["mapred.input_mb_per_query"] = b.per(cEngineInput, cQueries) / mb
	v["mapred.shuffle_mb_per_query"] = b.per(cEngineShuffle, cQueries) / mb
	v["mapred.output_mb_per_query"] = b.per(cEngineOutput, cQueries) / mb
	v["mapred.injected_mb_per_query"] = b.per(cEngineInjected, cQueries) / mb
	v["mapred.replication_rate"] = b.per(cEngineShuffle, cEngineInput)

	v["dfs.read_mb_per_query"] = b.per(cDFSRead, cQueries) / mb
	v["dfs.written_mb_per_query"] = b.per(cDFSWritten, cQueries) / mb

	// persist: the daemon's published WAL counters over the traced pass.
	v["persist.wal_kb_per_op"] = ratio(c.f(cWALBytes)/1024, ops)
	v["persist.wal_records_per_op"] = ratio(c.f(cWALRecords), ops)
	v["persist.compact_ms_per_pass"] = ratio(ms(sum(checkpoints)), float64(len(checkpoints)))
	v["persist.snapshot_mb_per_pass"] = b.per(cCompactBytes, cCompactions) / mb
	v["persist.write_amp"] = ratio(c.f(cWALBytes)+c.f(cCompactBytes), c.f(cDFSWritten))

	h := newHostInfo(append(append([]time.Duration(nil), a.calib...), b.calib...))
	v["host.calib_ms_p50"] = h.CalibP50MS
	v["host.calib_ms_iqr"] = h.CalibIQRMS
	v["host.loadavg_1m"] = h.LoadAvg1m
	v["bench.trace_overhead_ratio"] = ratio(b.qps(), a.qps())
	// The outside-in budget: HTTP overhead (traced pass) plus, per query,
	// the direct calls on its blocking path, against the untraced latency.
	v["bench.budget_coverage_ratio"] = ratio(medianMS(overhead)+medianMS(dr.total), quantile(a.queryLatenciesMS(), 0.5))
}

// budgetP50 is the traced pass's self-time split: per span name, the median
// over queries of the time that name spent on the query's blocking path.
func budgetP50(tr *tracer) map[string]float64 {
	per := make(map[string][]time.Duration)
	buds := tr.budgets()
	for _, b := range buds {
		for _, name := range []string{spanClient, spanHandler, spanWorkflow, spanMapPhase, spanReducePhase, spanMapTask, spanEncode, spanReduce} {
			per[name] = append(per[name], b[name])
		}
	}
	out := make(map[string]float64, len(per))
	for name, ds := range per {
		out[name] = medianMS(ds)
	}
	return out
}

// directP50 is the direct pass's medians, one per timed call.
func directP50(dr *direct) map[string]float64 {
	return map[string]float64{
		"piglatin.Parse":              medianMS(dr.parse),
		"logical.Build":               medianMS(dr.build),
		"mrcompile.Compile":           medianMS(dr.compile),
		"core.FindBestMatchProbed":    medianMS(dr.match),
		"core.RewriteWorkflow":        medianMS(dr.rewrite),
		"System.PrepareCached(miss)":  medianMS(dr.prepare),
		"System.PrepareCached(hit)":   medianMS(dr.prepCached),
		"System.TryServeStored(hit)":  medianMS(dr.hotServe),
		"System.TryServeStored(miss)": medianMS(dr.hotProbe),
		"System.ExecutePrepared":      medianMS(dr.execute),
		"System.ReadOutputTSV":        medianMS(dr.readRows),
		"System.LoadTSV":              medianMS(dr.upload),
		"System.CollectGarbage":       medianMS(dr.gc),
		"blocking path total":         medianMS(dr.total),
	}
}
