package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// This file renders GET /metrics in the Prometheus text exposition format
// (version 0.0.4). It is hand-written on purpose: the repo takes no
// third-party dependencies, and the format is a few dozen lines of
// counters, gauges, and cumulative histogram buckets. Every counter in
// MetricsSnapshot and core.StatsSnapshot appears here under a restore_*
// name, plus the latency histograms only this endpoint exposes in full
// (the JSON document carries condensed summaries). The golden test in
// prom_test.go pins the family names, labels, and HELP strings.

// promWriter accumulates one exposition document.
type promWriter struct{ b strings.Builder }

// family emits one # HELP / # TYPE header pair.
func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// counter emits a single-series counter family.
func (p *promWriter) counter(name, help string, v int64) {
	p.family(name, help, "counter")
	fmt.Fprintf(&p.b, "%s %d\n", name, v)
}

// gauge emits a single-series gauge family.
func (p *promWriter) gauge(name, help string, v float64) {
	p.family(name, help, "gauge")
	fmt.Fprintf(&p.b, "%s %s\n", name, promFloat(v))
}

// series emits one raw series line (for labeled families).
func (p *promWriter) series(line string, v int64) {
	fmt.Fprintf(&p.b, "%s %d\n", line, v)
}

// histogram emits one histogram family with a single (unlabeled) series.
func (p *promWriter) histogram(name, help string, h obs.HistogramSnapshot) {
	p.family(name, help, "histogram")
	p.histogramSeries(name, "", h)
}

// histogramSeries emits the cumulative bucket, sum, and count lines of one
// histogram series. labels is either empty or a `key="value",` prefix
// (trailing comma included) merged before the le label.
func (p *promWriter) histogramSeries(name, labels string, h obs.HistogramSnapshot) {
	var cum int64
	for i := 0; i < obs.NumBuckets; i++ {
		cum += h.Buckets[i]
		fmt.Fprintf(&p.b, "%s_bucket{%sle=%q} %d\n", name, labels, promLE(i), cum)
	}
	sum := float64(h.SumNanos) / float64(time.Second)
	if labels == "" {
		fmt.Fprintf(&p.b, "%s_sum %s\n%s_count %d\n", name, promFloat(sum), name, h.Count)
		return
	}
	trimmed := strings.TrimSuffix(labels, ",")
	fmt.Fprintf(&p.b, "%s_sum{%s} %s\n%s_count{%s} %d\n", name, trimmed, promFloat(sum), name, trimmed, h.Count)
}

// promLE renders bucket i's upper bound in seconds ("+Inf" for the
// overflow bucket).
func promLE(i int) string {
	if i == obs.NumBuckets-1 {
		return "+Inf"
	}
	return promFloat(obs.BucketBound(i).Seconds())
}

// promFloat renders a float the way Prometheus clients conventionally do.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// handleProm serves the Prometheus exposition.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	snap := s.met.snapshot()
	reg := s.obsReg
	var p promWriter

	p.gauge("restore_uptime_seconds", "Seconds since the daemon started.", snap.UptimeSeconds)
	p.counter("restore_queries_submitted_total", "Query submissions (each retry counts once).", snap.QueriesSubmitted)
	p.counter("restore_queries_executed_total", "Submissions that led their flight and ran to completion.", snap.QueriesExecuted)
	p.counter("restore_queries_deduped_total", "Submissions served by joining an identical in-flight query.", snap.QueriesDeduped)
	p.counter("restore_queries_hot_total", "Executed flights served by the admission-time result fast path (subset of executed).", snap.QueriesHot)
	p.family("restore_queries_failed_total", "Failed submissions by cause: parse (script rejected), shed (queue full or shutting down), exec (execution or rows read failed).", "counter")
	p.series(`restore_queries_failed_total{cause="parse"}`, snap.QueriesFailedParse)
	p.series(`restore_queries_failed_total{cause="shed"}`, snap.QueriesFailedShed)
	p.series(`restore_queries_failed_total{cause="exec"}`, snap.QueriesFailedExec)
	p.gauge("restore_qps", "Lifetime average submissions per second.", snap.QPS)
	p.gauge("restore_qps_1m", "Submissions per second over the trailing 60s window.", snap.QPS1m)
	p.gauge("restore_queue_depth", "Tasks waiting for a worker slot or holding one.", float64(s.sched.queueDepth()))
	p.gauge("restore_executing", "Tasks running on the worker pool right now.", float64(s.sched.executing()))
	p.gauge("restore_workers", "Worker-pool size (slots: tasks executing or waiting for a lease at once).", float64(s.sched.workers))
	p.counter("restore_uploads_total", "Dataset uploads accepted.", snap.Uploads)
	p.counter("restore_checkpoints_total", "Completed WAL compactions (periodic, manual, shutdown).", snap.Checkpoints)
	p.counter("restore_gc_runs_total", "Background growth-management passes.", snap.GCRuns)
	p.counter("restore_gc_evicted_total", "Repository entries evicted by background GC passes.", snap.GCEvicted)
	p.counter("restore_gc_outputs_retired_total", "User-named outputs deleted by retention.", snap.GCOutputsRetired)

	p.gauge("restore_lease_waiting", "Operations queued for path-lease admission.", float64(reg.LeaseWaiting.Load()))
	p.gauge("restore_lease_inflight", "Path leases currently held.", float64(reg.LeaseInflight.Load()))
	p.gauge("restore_universal_waiting", "Universal drain barriers currently stalled waiting for the system to drain.", float64(reg.UniversalWaiting.Load()))
	p.counter("restore_universal_acquires_total", "Universal drain-barrier acquisitions.", reg.UniversalAcquires.Load())

	ru := s.sys.Stats()
	p.counter("restore_reuse_queries_total", "Queries executed by the System (library counter; excludes deduped joiners).", ru.Queries)
	p.counter("restore_reuse_queries_reused_total", "Queries that reused at least one stored output.", ru.QueriesReused)
	p.gauge("restore_reuse_hit_rate", "Fraction of executed queries that reused stored outputs.", ru.HitRate)
	p.counter("restore_reuse_whole_job_total", "Whole-job reuses applied by the plan matcher.", ru.WholeJobReuses)
	p.counter("restore_reuse_sub_job_total", "Sub-job reuses applied by the plan matcher.", ru.SubJobReuses)
	p.counter("restore_jobs_compiled_total", "MapReduce jobs compiled from submitted queries.", ru.JobsCompiled)
	p.counter("restore_jobs_executed_total", "MapReduce jobs that actually ran (after rewrite).", ru.JobsExecuted)
	p.counter("restore_jobs_eliminated_total", "MapReduce jobs eliminated by reuse.", ru.JobsEliminated)
	p.counter("restore_repository_registered_total", "Candidates that entered the repository.", ru.Registered)
	p.counter("restore_repository_rejected_total", "Candidates the keep policy (or a vanished input) rejected.", ru.Rejected)
	p.counter("restore_repository_evicted_total", "Repository entries evicted (per-query passes and GC alike).", ru.Evicted)
	p.counter("restore_reuse_saved_bytes_total", "Input bytes not rescanned thanks to reuse (estimate).", ru.SavedBytes)
	p.gauge("restore_reuse_saved_simulated_seconds_total", "Simulated cluster seconds saved by reuse (estimate).", ru.SavedTime.Seconds())
	p.gauge("restore_simulated_seconds_total", "Simulated cluster seconds of executed workflows.", ru.SimulatedTime.Seconds())
	p.counter("restore_hot_plan_cache_hits_total", "Preparations served by cloning a cached compiled plan (no parse/plan/compile).", ru.Hot.PlanCacheHits)
	p.counter("restore_hot_plan_cache_misses_total", "Full preparations that populated the prepared-plan cache.", ru.Hot.PlanCacheMisses)
	p.counter("restore_hot_results_served_total", "Queries answered entirely from fresh stored outputs without execution leases.", ru.Hot.ResultsServed)
	p.counter("restore_hot_fallbacks_total", "Fast-path probes that found no fresh whole-query match and fell back to normal execution.", ru.Hot.Fallbacks)
	p.counter("restore_match_probes_total", "Repository match probes (entry plan containment tests).", ru.Match.Probes)
	p.counter("restore_match_index_hits_total", "Match probes answered through the fingerprint index.", ru.Match.IndexHits)
	p.counter("restore_match_fallback_scans_total", "Match scans that fell back to the full repository walk.", ru.Match.FallbackScans)
	p.counter("restore_evict_scans_total", "Eviction passes (staleness scans).", ru.Evict.Scans)
	p.counter("restore_evict_probes_total", "Eviction DFS probes (file version checks).", ru.Evict.Probes)
	p.counter("restore_evict_delete_errors_total", "Failed stored-file deletes (re-queued for retry).", ru.Evict.DeleteErrors)
	p.counter("restore_evict_requeue_retired_total", "Previously-failed deletes finally retired.", ru.Evict.RequeueRetired)
	p.counter("restore_evict_outputs_retired_total", "User-named outputs deleted by retention (System counter; the gc_* variant counts per-pass).", ru.Evict.OutputsRetired)

	repo := s.sys.Repository()
	p.gauge("restore_repository_entries", "Stored job outputs currently in the repository.", float64(repo.Len()))
	p.gauge("restore_repository_stored_bytes", "Bytes of DFS data the repository's stored outputs occupy.", float64(repo.TotalStoredBytes()))

	if s.persist != nil {
		ws := s.persist.stats()
		p.gauge("restore_wal_segment", "Current write-ahead-log segment number.", float64(ws.Segment))
		p.counter("restore_wal_records_total", "WAL records appended since daemon start.", ws.Records)
		p.counter("restore_wal_bytes_total", "WAL bytes appended since daemon start.", ws.Bytes)
		p.counter("restore_wal_append_errors_total", "WAL records dropped by a failed append.", ws.AppendErrors)
		p.counter("restore_wal_compactions_total", "Snapshot+truncate compaction cycles.", ws.Compactions)
		p.counter("restore_wal_compact_bytes_total", "Snapshot bytes written by compactions.", ws.CompactBytes)
		p.counter("restore_wal_swept_files_total", "Orphaned restore/ files reclaimed by recovery and compaction sweeps.", ws.TempFilesSwept)
		p.gauge("restore_wal_dirty_files", "DFS files changed since the last compaction.", float64(ws.DirtyFiles))
		p.gauge("restore_wal_recovered_records", "Log records replayed over the snapshot at startup.", float64(ws.RecoveredRecords))
		torn := 0.0
		if ws.RecoveredTorn {
			torn = 1
		}
		p.gauge("restore_wal_recovered_torn", "Whether startup replay truncated a torn final record (0/1).", torn)
	}

	if s.fleet != nil {
		fs := s.fleet.Stats()
		p.counter("restore_fleet_map_tasks_dispatched_total", "Map task dispatch attempts to fleet workers.", fs.MapTasksDispatched)
		p.counter("restore_fleet_reduce_tasks_dispatched_total", "Reduce partition dispatch attempts to fleet workers.", fs.ReduceTasksDispatched)
		p.counter("restore_fleet_tasks_retried_total", "Tasks re-executed in full after a worker failure.", fs.TasksRetried)
		p.counter("restore_fleet_tasks_recovered_total", "Lost tasks rebuilt from repository-backed stored outputs (reuse as recovery).", fs.TasksRecovered)
		p.counter("restore_fleet_worker_failures_total", "Workers the coordinator declared dead.", fs.WorkerFailures)
		p.counter("restore_fleet_shuffle_bytes_pulled_total", "Shuffle bytes reduce workers pulled from peers.", fs.ShuffleBytesPulled)
		p.family("restore_fleet_worker_alive", "Per-worker liveness (1 = dispatching, 0 = dead).", "gauge")
		for _, w := range fs.Workers {
			alive := int64(0)
			if w.Alive {
				alive = 1
			}
			p.series(fmt.Sprintf("restore_fleet_worker_alive{worker=%q}", w.Addr), alive)
		}
	}

	p.histogram("restore_query_duration_seconds", "End-to-end query latency (handler arrival to response build).", reg.Query.Snapshot())
	p.family("restore_stage_duration_seconds", "Per-stage query latency; stages in lifecycle order: parse, queue, flightWait, hot, lease, evict, match, plan, execute, store, rows.", "histogram")
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		p.histogramSeries("restore_stage_duration_seconds", fmt.Sprintf("stage=%q,", st.String()), reg.Stages[st].Snapshot())
	}
	p.histogram("restore_lease_wait_seconds", "Path-lease admission wait of every acquirer (queries, GC, universal barriers).", reg.LeaseWait.Snapshot())
	p.histogram("restore_wal_append_seconds", "Per-record WAL append (framing plus buffered write).", reg.WALAppend.Snapshot())
	p.histogram("restore_wal_fsync_seconds", "WAL flush/fsync batches.", reg.WALFsync.Snapshot())
	p.histogram("restore_gc_sweep_seconds", "Background CollectGarbage passes.", reg.GCSweep.Snapshot())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(p.b.String()))
}
