package server

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// metrics holds the daemon's own traffic counters; reuse counters live in
// core.Stats inside the System so library users get them too, and latency
// distributions live in the obs.Registry shared with the System.
type metrics struct {
	start time.Time
	// rate tracks submissions over a sliding 60s window, fixing the
	// lifetime-average qps field that went stale minutes after startup.
	rate      *obs.RateWindow
	submitted atomic.Int64
	executed  atomic.Int64
	deduped   atomic.Int64
	failed    atomic.Int64
	// hot counts the executed flights served by the admission-time result
	// fast path (a subset of executed: the flight completed, it just never
	// touched the scheduler or took a lease).
	hot atomic.Int64
	// The failed total splits by cause: a parse/plan/compile rejection
	// (client's script), a shed submission (queue full or shutting down —
	// capacity, not correctness), or an execution/rows failure. The split
	// is what distinguishes "clients send garbage" from "we are
	// overloaded" from "the engine is broken" on one dashboard.
	failedParse atomic.Int64
	failedShed  atomic.Int64
	failedExec  atomic.Int64
	uploads     atomic.Int64
	checkpoints atomic.Int64
	gcRuns      atomic.Int64
	gcEvicted   atomic.Int64
	gcRetired   atomic.Int64
}

// LatencySummary condenses a latency histogram for the JSON metrics
// document (full bucket detail is on GET /metrics).
type LatencySummary struct {
	Count      int64   `json:"count"`
	MeanMillis float64 `json:"meanMillis"`
	P50Millis  float64 `json:"p50Millis"`
	P90Millis  float64 `json:"p90Millis"`
	P99Millis  float64 `json:"p99Millis"`
}

// summarize condenses a histogram snapshot; nil when it holds no samples
// (so the JSON field disappears instead of reading as zero latency).
func summarize(h obs.HistogramSnapshot) *LatencySummary {
	if h.Count == 0 {
		return nil
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return &LatencySummary{
		Count:      h.Count,
		MeanMillis: ms(h.Mean()),
		P50Millis:  ms(h.Quantile(0.50)),
		P90Millis:  ms(h.Quantile(0.90)),
		P99Millis:  ms(h.Quantile(0.99)),
	}
}

// MetricsSnapshot is the JSON document served by GET /v1/metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// QueriesSubmitted counts every POST /v1/query; QueriesExecuted the
	// flights that ran to completion (parse errors and shed load excluded);
	// QueriesDeduped the submissions that shared an identical in-flight
	// query's result.
	QueriesSubmitted int64 `json:"queriesSubmitted"`
	QueriesExecuted  int64 `json:"queriesExecuted"`
	QueriesDeduped   int64 `json:"queriesDeduped"`
	QueriesFailed    int64 `json:"queriesFailed"`
	// QueriesHot counts executed flights the admission-time result fast
	// path served from fresh stored outputs — no scheduler, no lease, no
	// engine run. A subset of QueriesExecuted, so the identity
	// submitted = executed + deduped + failed is unaffected. Cache and
	// probe detail is under reuse.hot.
	QueriesHot int64 `json:"queriesHot"`
	// The failure split: parse/plan/compile rejections, shed submissions
	// (queue full or shutting down), and execution or rows-read failures.
	// The three always sum to QueriesFailed.
	QueriesFailedParse int64 `json:"queriesFailedParse"`
	QueriesFailedShed  int64 `json:"queriesFailedShed"`
	QueriesFailedExec  int64 `json:"queriesFailedExec"`
	// QPS is the lifetime average (kept for compatibility); QPS1m is the
	// submission rate over the last 60 seconds and is the one to watch.
	QPS        float64 `json:"qps"`
	QPS1m      float64 `json:"qps1m"`
	QueueDepth int64   `json:"queueDepth"`
	// Executing counts tasks running on the worker pool right now; Workers
	// is the pool size (how many tasks may execute, or wait for a
	// conflicting one's lease, at once).
	Executing int64 `json:"executing"`
	Workers   int64 `json:"workers"`
	Uploads   int64 `json:"uploads"`
	// Checkpoints counts completed compactions (periodic, manual, and
	// shutdown); routine WAL flushes are not checkpoints and are reported
	// under WAL instead.
	Checkpoints int64 `json:"checkpoints"`
	// GCRuns counts background growth-management passes; GCEvicted and
	// GCOutputsRetired what they reclaimed (repository entries, user-named
	// outputs). Per-query eviction work is reported under reuse.evict.
	GCRuns           int64 `json:"gcRuns"`
	GCEvicted        int64 `json:"gcEvicted"`
	GCOutputsRetired int64 `json:"gcOutputsRetired"`

	// Latency summarizes the end-to-end query latency distribution, and
	// LeaseWait the lease-admission waits; nil until a first sample lands.
	// Full per-stage histograms are on GET /metrics.
	Latency   *LatencySummary `json:"latency,omitempty"`
	LeaseWait *LatencySummary `json:"leaseWait,omitempty"`

	// WAL describes the write-ahead-log persistence subsystem; nil when
	// the daemon runs without a state directory.
	WAL *WALStats `json:"wal,omitempty"`

	// Fleet describes the distributed execution backend (worker liveness,
	// task dispatch and recovery counters, shuffle bytes pulled); nil when
	// the daemon executes in-process.
	Fleet *fleet.Stats `json:"fleet,omitempty"`

	// Reuse is the System's lifetime reuse statistics (hit rate, bytes and
	// simulated time saved).
	Reuse core.StatsSnapshot `json:"reuse"`

	RepositoryEntries     int   `json:"repositoryEntries"`
	RepositoryStoredBytes int64 `json:"repositoryStoredBytes"`
}

// fail counts one failed submission under its cause. cause is one of the
// failCause values.
func (m *metrics) fail(cause failCause) {
	m.failed.Add(1)
	switch cause {
	case failParse:
		m.failedParse.Add(1)
	case failShed:
		m.failedShed.Add(1)
	default:
		m.failedExec.Add(1)
	}
}

// failCause classifies a failed submission for the split counters.
type failCause uint8

// failCause values.
const (
	failParse failCause = iota // script rejected at prepare
	failShed                   // queue full or shutting down
	failExec                   // execution or rows read failed
)

func (m *metrics) snapshot() MetricsSnapshot {
	now := time.Now()
	up := now.Sub(m.start).Seconds()
	snap := MetricsSnapshot{
		UptimeSeconds:      up,
		QueriesSubmitted:   m.submitted.Load(),
		QueriesExecuted:    m.executed.Load(),
		QueriesDeduped:     m.deduped.Load(),
		QueriesFailed:      m.failed.Load(),
		QueriesHot:         m.hot.Load(),
		QueriesFailedParse: m.failedParse.Load(),
		QueriesFailedShed:  m.failedShed.Load(),
		QueriesFailedExec:  m.failedExec.Load(),
		QPS1m:              m.rate.Rate(now),
		Uploads:            m.uploads.Load(),
		Checkpoints:        m.checkpoints.Load(),
		GCRuns:             m.gcRuns.Load(),
		GCEvicted:          m.gcEvicted.Load(),
		GCOutputsRetired:   m.gcRetired.Load(),
	}
	if up > 0 {
		snap.QPS = float64(snap.QueriesSubmitted) / up
	}
	return snap
}
