package main

import (
	"fmt"
	"math"
)

// counter indexes one monotonic count the program publishes (GET
// /v1/metrics, FS.Counters) or the traced backend keeps.
type counter int

const (
	cQueries counter = iota
	cReused
	cWholeReuses
	cSubReuses
	cJobsCompiled
	cJobsExecuted
	cRegistered
	cRejected
	cProbes
	cIndexHits
	cFallbackScans
	cSavedBytes
	cDFSWritten
	cDFSRead
	cPlanCacheHits
	cHotServed
	// The counters above (nExact of them) repeat exactly, segment after
	// segment, on the 1-client workloads. Those below depend on timing or
	// exist only on some daemons.
	cEvicted
	cEvictScans
	cEvictProbes
	cSubmitted
	cDeduped
	cShed
	cWALRecords
	cWALBytes
	cCompactions
	cCompactBytes
	cLeaseWaits // lease admissions, and the nanoseconds they waited in all
	cLeaseWaitNanos
	cWorkflows // the traced backend's: workflows run, of which probed, ...
	cProbed
	cEngineInput
	cEngineShuffle
	cEngineOutput
	cEngineInjected
	nCounters
)

const nExact = cHotServed + 1

var exactNames = [nExact]string{
	"queries", "reused", "wholeJobReuses", "subJobReuses", "jobsCompiled", "jobsExecuted",
	"registered", "rejected", "matchProbes", "matchIndexHits", "matchFallbackScans",
	"savedBytes", "dfsWritten", "dfsRead", "planCacheHits", "hotServed",
}

// counts is one reading (or a difference of two readings) of every counter.
type counts [nCounters]int64

func (a counts) sub(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a *counts) add(b counts) {
	for i := range a {
		a[i] += b[i]
	}
}

func (a counts) f(c counter) float64 { return float64(a[c]) }

// exact names the counters that must repeat, for the info line.
func (a counts) exact() map[string]int64 {
	out := make(map[string]int64, nExact)
	for i, name := range exactNames {
		out[name] = a[i]
	}
	return out
}

// read takes one reading of every counter.
func (d *daemon) read() (counts, error) {
	snap, err := d.metrics()
	if err != nil {
		return counts{}, fmt.Errorf("read counters: %w", err)
	}
	var c counts
	r := snap.Reuse
	c[cQueries], c[cReused] = r.Queries, r.QueriesReused
	c[cWholeReuses], c[cSubReuses] = r.WholeJobReuses, r.SubJobReuses
	c[cJobsCompiled], c[cJobsExecuted] = r.JobsCompiled, r.JobsExecuted
	c[cRegistered], c[cRejected] = r.Registered, r.Rejected
	c[cProbes], c[cIndexHits], c[cFallbackScans] = r.Match.Probes, r.Match.IndexHits, r.Match.FallbackScans
	c[cSavedBytes] = r.SavedBytes
	c[cDFSWritten], c[cDFSRead] = d.sys.FS().Counters()
	c[cPlanCacheHits], c[cHotServed] = r.Hot.PlanCacheHits, r.Hot.ResultsServed
	c[cEvicted], c[cEvictScans], c[cEvictProbes] = r.Evict.Evicted, r.Evict.Scans, r.Evict.Probes
	c[cSubmitted], c[cDeduped], c[cShed] = snap.QueriesSubmitted, snap.QueriesDeduped, snap.QueriesFailedShed
	if w := snap.WAL; w != nil {
		c[cWALRecords], c[cWALBytes] = w.Records, w.Bytes
		c[cCompactions], c[cCompactBytes] = w.Compactions, w.CompactBytes
	}
	// The published quantiles are power-of-two bucket bounds over the daemon's
	// whole life; count x mean is the exact sum, and differences of it are the
	// measured phase's own.
	if l := snap.LeaseWait; l != nil {
		c[cLeaseWaits] = l.Count
		c[cLeaseWaitNanos] = int64(math.Round(l.MeanMillis * 1e6 * float64(l.Count)))
	}
	if d.backend != nil {
		d.backend.read(&c)
	}
	return c, nil
}

// tally counts checks attempted and failed and keeps the first failure.
type tally struct {
	attempted, failed int
	first             string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == "" {
		t.first = o.first
	}
}
