package obs

import (
	"sync/atomic"
	"time"
)

// Registry is the set of histograms and gauges one deployment records into.
// The System, lease table, server, and persister all share one Registry
// (the server wires it through), so GET /metrics renders a single coherent
// view.
//
// Every record method is safe for concurrent use and nil-safe, and the
// Disabled sentinel turns each into a single-branch no-op — library users
// who never construct a Registry pay only a nil check.
// BenchmarkServerSubmit prices instrumented vs disabled per request;
// bench.trace_overhead_ratio in benchmark/ is the end-to-end figure.
type Registry struct {
	disabled bool

	// Query is the end-to-end request latency distribution (handler
	// arrival to response build), and Stages the per-stage breakdowns.
	Query  Histogram
	Stages [NumStages]Histogram
	// LeaseWait is the admission wait of every lease acquisition (queries,
	// GC passes, universal barriers alike); StageLease covers query
	// executions only.
	LeaseWait Histogram
	// WALAppend and WALFsync time the persistence hot path: framing+append
	// per mutation record, and each batched fsync.
	WALAppend Histogram
	WALFsync  Histogram
	// GCSweep times each background CollectGarbage pass.
	GCSweep Histogram

	// LeaseWaiting and LeaseInflight gauge the lease table (queued vs
	// admitted operations); UniversalWaiting gauges universal-barrier
	// acquisitions currently stalled draining the system, and
	// UniversalAcquires counts them over the lifetime.
	LeaseWaiting      atomic.Int64
	LeaseInflight     atomic.Int64
	UniversalWaiting  atomic.Int64
	UniversalAcquires atomic.Int64
}

// Disabled is the no-op Registry: every record call returns after one
// branch. Pass it where a *Registry is required to switch telemetry off
// (BenchmarkServerSubmit's baseline).
var Disabled = &Registry{disabled: true}

// NewRegistry returns an active registry.
func NewRegistry() *Registry { return &Registry{} }

// Off reports whether recording into r is a no-op (nil or Disabled).
func (r *Registry) Off() bool { return r == nil || r.disabled }

// ObserveStage records one stage duration.
func (r *Registry) ObserveStage(st Stage, d time.Duration) {
	if r.Off() {
		return
	}
	r.Stages[st].Observe(d)
}

// ObserveQuery records one end-to-end request duration.
func (r *Registry) ObserveQuery(d time.Duration) {
	if r.Off() {
		return
	}
	r.Query.Observe(d)
}

// ObserveLeaseWait records one lease-admission wait.
func (r *Registry) ObserveLeaseWait(d time.Duration) {
	if r.Off() {
		return
	}
	r.LeaseWait.Observe(d)
}

// ObserveWALAppend records one WAL record append.
func (r *Registry) ObserveWALAppend(d time.Duration) {
	if r.Off() {
		return
	}
	r.WALAppend.Observe(d)
}

// ObserveWALFsync records one WAL fsync.
func (r *Registry) ObserveWALFsync(d time.Duration) {
	if r.Off() {
		return
	}
	r.WALFsync.Observe(d)
}

// ObserveGCSweep records one background garbage-collection pass.
func (r *Registry) ObserveGCSweep(d time.Duration) {
	if r.Off() {
		return
	}
	r.GCSweep.Observe(d)
}

// LeaseQueued adjusts the waiting-leases gauge by delta.
func (r *Registry) LeaseQueued(delta int64) {
	if r.Off() {
		return
	}
	r.LeaseWaiting.Add(delta)
}

// LeaseAdmitted adjusts the in-flight-leases gauge by delta.
func (r *Registry) LeaseAdmitted(delta int64) {
	if r.Off() {
		return
	}
	r.LeaseInflight.Add(delta)
}

// UniversalQueued adjusts the stalled-universal-barriers gauge by delta,
// counting each new wait in the lifetime total.
func (r *Registry) UniversalQueued(delta int64) {
	if r.Off() {
		return
	}
	r.UniversalWaiting.Add(delta)
	if delta > 0 {
		r.UniversalAcquires.Add(delta)
	}
}
