package main

import (
	"encoding/json"
)

// runSeconds is how long one run measures; it is also BENCHMARK.json's
// run_seconds.
const runSeconds = 25

// metricDef defines one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change is a regression
// (per-layer metrics have none, and BENCHMARK.json then omits the key).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what a user of the daemon sees. The same names are
// reported on every workload. See README.md for how each bound was derived.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"throughput_qps", "ops/s", higher, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"latency_p90_ms", "ms", lower, 0.25},
	{"cpu_ms_per_query", "ms", lower, 0.25},
	{"alloc_mb_per_query", "MB", lower, 0.02},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"stored_bytes_ratio", "ratio", lower, 0.01},
	{"reuse_hit_ratio", "ratio", higher, 0.01},
}

// perLayerMetrics are single-layer numbers from the traced run, layer =
// module name. README.md maps each to the end-to-end metric it should move.
var perLayerMetrics = []metricDef{
	{Name: "server.http_overhead_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.handler_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.response_kb_per_query", Unit: "KB", Better: lower},
	{Name: "server.deduped_ratio", Unit: "ratio", Better: higher},
	{Name: "server.shed_count", Unit: "count", Better: lower},
	{Name: "server.upload_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.queue_depth_max", Unit: "count", Better: lower},

	{Name: "restore.prepare_ms_p50", Unit: "ms", Better: lower},
	{Name: "restore.prepare_cached_us_p50", Unit: "us", Better: lower},
	{Name: "restore.plancache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "restore.hot_serve_ms_p50", Unit: "ms", Better: lower},
	{Name: "restore.hot_served_ratio", Unit: "ratio", Better: higher},
	{Name: "restore.execute_ms_p50", Unit: "ms", Better: lower},
	{Name: "restore.read_rows_ms_p50", Unit: "ms", Better: lower},
	{Name: "restore.lease_wait_us_mean", Unit: "us", Better: lower},
	{Name: "restore.gc_ms_per_pass", Unit: "ms", Better: lower},
	{Name: "restore.gc_evicted_per_pass", Unit: "count", Better: lower},

	{Name: "piglatin.parse_us_p50", Unit: "us", Better: lower},
	{Name: "logical.build_us_p50", Unit: "us", Better: lower},
	{Name: "mrcompile.compile_us_p50", Unit: "us", Better: lower},
	{Name: "mrcompile.jobs_per_query", Unit: "count", Better: lower},

	{Name: "core.match_us_p50", Unit: "us", Better: lower},
	{Name: "core.match_probes_per_query", Unit: "count", Better: lower},
	{Name: "core.match_index_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "core.match_fallback_scans_per_query", Unit: "count", Better: lower},
	{Name: "core.rewrite_us_p50", Unit: "us", Better: lower},
	{Name: "core.whole_job_reuses_per_query", Unit: "count", Better: higher},
	{Name: "core.sub_job_reuses_per_query", Unit: "count", Better: higher},
	{Name: "core.saved_mb_per_query", Unit: "MB", Better: higher},
	{Name: "core.registered_per_query", Unit: "count", Better: lower},
	{Name: "core.rejected_per_query", Unit: "count", Better: lower},
	{Name: "core.evict_scans_per_upload", Unit: "count", Better: lower},
	{Name: "core.evict_probes_per_upload", Unit: "count", Better: lower},
	{Name: "core.evicted_per_upload", Unit: "count", Better: lower},
	{Name: "core.repository_entries_end", Unit: "count", Better: lower},

	{Name: "mapred.run_workflow_ms_p50", Unit: "ms", Better: lower},
	{Name: "mapred.jobs_executed_per_query", Unit: "count", Better: lower},
	{Name: "mapred.map_tasks_per_query", Unit: "count", Better: lower},
	{Name: "mapred.map_task_ms_sum_per_query", Unit: "ms", Better: lower},
	{Name: "mapred.reduce_part_ms_sum_per_query", Unit: "ms", Better: lower},
	{Name: "mapred.coord_self_ms_per_query", Unit: "ms", Better: lower},
	{Name: "mapred.straggler_ratio", Unit: "ratio", Better: lower},
	{Name: "mapred.input_mb_per_query", Unit: "MB", Better: lower},
	{Name: "mapred.shuffle_mb_per_query", Unit: "MB", Better: lower},
	{Name: "mapred.output_mb_per_query", Unit: "MB", Better: lower},
	{Name: "mapred.injected_mb_per_query", Unit: "MB", Better: lower},
	{Name: "mapred.replication_rate", Unit: "ratio", Better: lower},

	{Name: "exec.eval_ns_per_record", Unit: "ns", Better: lower},
	{Name: "exec.pipeline_ns_per_record", Unit: "ns", Better: lower},

	{Name: "types.decode_ns_per_record", Unit: "ns", Better: lower},
	{Name: "types.decode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "types.decode_alloc_b_per_record", Unit: "B", Better: lower},
	{Name: "types.encode_ns_per_record", Unit: "ns", Better: lower},
	{Name: "types.compare_ns_per_pair", Unit: "ns", Better: lower},

	{Name: "dfs.read_mb_per_query", Unit: "MB", Better: lower},
	{Name: "dfs.written_mb_per_query", Unit: "MB", Better: lower},
	{Name: "dfs.import_mb_s", Unit: "MB/s", Better: higher},
	{Name: "dfs.export_mb_s", Unit: "MB/s", Better: higher},
	{Name: "dfs.files_end", Unit: "count", Better: lower},
	{Name: "dfs.bytes_end", Unit: "B", Better: lower},

	{Name: "persist.wal_kb_per_op", Unit: "KB", Better: lower},
	{Name: "persist.wal_records_per_op", Unit: "count", Better: lower},
	{Name: "persist.append_us_per_record", Unit: "us", Better: lower},
	{Name: "persist.compact_ms_per_pass", Unit: "ms", Better: lower},
	{Name: "persist.snapshot_mb_per_pass", Unit: "MB", Better: lower},
	{Name: "persist.write_amp", Unit: "ratio", Better: lower},
	{Name: "persist.replay_records_per_s", Unit: "1/s", Better: higher},
	{Name: "persist.recovery_s", Unit: "s", Better: lower},

	{Name: "host.calib_ms_p50", Unit: "ms", Better: lower},
	{Name: "host.calib_ms_iqr", Unit: "ms", Better: lower},
	{Name: "host.loadavg_1m", Unit: "count", Better: lower},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: higher},
	{Name: "bench.budget_coverage_ratio", Unit: "ratio", Better: higher},
}

// exactMetrics are the count metrics that must repeat bit for bit between
// two same-seed runs of a 1-client workload.
var exactMetrics = []string{
	"stored_bytes_ratio", "reuse_hit_ratio",
	"core.match_probes_per_query", "core.match_index_hit_ratio", "core.match_fallback_scans_per_query",
	"core.whole_job_reuses_per_query", "core.sub_job_reuses_per_query", "core.saved_mb_per_query",
	"core.registered_per_query", "core.rejected_per_query",
	"mapred.jobs_executed_per_query", "mapred.input_mb_per_query", "mapred.shuffle_mb_per_query",
	"mapred.output_mb_per_query", "mapred.injected_mb_per_query", "mapred.replication_rate",
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

// specJSON renders BENCHMARK.json from the tables above, so the file and
// the program cannot drift apart (bench_test.go compares them).
func specJSON() string {
	s := spec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(out)
}
