package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Stage identifies one phase of a query's life. The stage set covers the
// full request wall-clock: a non-deduped query's spans are
// parse → hot → queue → lease → evict → match → plan → execute → store
// (→ rows), a fast-path-served query's are parse → hot (→ rows), and a
// deduped submission's are parse → flight-wait (→ rows). The server's
// trace e2e test pins that the spans account for >= 95% of the measured
// request time, so any new await added to the query path must either live
// inside an existing stage or add its own.
type Stage uint8

// Stage values, in query-lifecycle order.
const (
	// StageParse is System.Prepare: parse, logical plan, MapReduce compile.
	StageParse Stage = iota
	// StageQueue is the wait for a worker slot in the server's scheduler
	// (submit to the start of the task); which tasks may overlap is decided
	// afterwards, inside the slot, and shows up as StageLease.
	StageQueue
	// StageFlightWait is a deduped submission's wait on its flight leader's
	// execution (the joiner runs no stages of its own).
	StageFlightWait
	// StageHot is the admission-time result fast path: the whole-query
	// match probe (with its pin-time staleness guards) a flight leader runs
	// before any scheduler queueing or lease. Recorded for served and
	// fallen-back queries alike — on a fallback it measures the probe cost
	// the miss added.
	StageHot
	// StageLease is the wait for the System's path-lease admission
	// (conflicting in-flight work draining).
	StageLease
	// StageEvict is phase 0: the Rule-4/window/budget eviction passes.
	StageEvict
	// StageMatch is phase 1: the repository match scan and plan rewrite.
	StageMatch
	// StagePlan is phase 2: sub-job enumeration and final job construction.
	StagePlan
	// StageExecute is phase 3: the MapReduce engine run on the installed
	// backend (in-process, or the worker fleet).
	StageExecute
	// StageStore is phase 4: candidate registration and retention notes.
	StageStore
	// StageRows is the post-execution output read-back (readOutputs
	// requests): each output's stored partition bytes formatted as TSV
	// lines, sorted, and encoded into the reply's JSON rows object.
	StageRows
	// NumStages is the number of Stage values (array sizing).
	NumStages
)

// stageNames are the wire/label names, indexed by Stage.
var stageNames = [NumStages]string{
	"parse", "queue", "flightWait", "hot", "lease", "evict",
	"match", "plan", "execute", "store", "rows",
}

// String returns the stage's wire name (stable: metric labels and trace
// JSON both use it).
func (st Stage) String() string {
	if int(st) < len(stageNames) {
		return stageNames[st]
	}
	return fmt.Sprintf("stage(%d)", uint8(st))
}

// Span is one completed stage of a trace, with offsets relative to the
// trace's begin time.
type Span struct {
	// Stage is the stage's wire name (see Stage.String).
	Stage string `json:"stage"`
	// StartNanos is the span's offset from the trace start.
	StartNanos int64 `json:"startNanos"`
	// DurNanos is the span's duration.
	DurNanos int64 `json:"durNanos"`
}

// Trace collects the stage spans of one query submission. A nil *Trace is
// a valid no-op sink, so instrumented code paths never branch on "is
// tracing on". The handful of appends per query go through a mutex: spans
// are recorded from both the request goroutine and the scheduler worker,
// and the channel handoffs between them do not cover every interleaving a
// future refactor might introduce.
type Trace struct {
	begin time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace whose span offsets are relative to begin.
func NewTrace(begin time.Time) *Trace {
	return &Trace{begin: begin, spans: make([]Span, 0, int(NumStages))}
}

// ObserveSince records stage as having run from start until now, returning
// the span's duration. A nil trace records nothing but still returns the
// elapsed time, so one call can feed both a trace span and a histogram
// sample without re-reading the clock.
func (t *Trace) ObserveSince(stage Stage, start time.Time) time.Duration {
	d := time.Since(start)
	if d < 0 {
		d = 0
	}
	if t == nil {
		return d
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Stage:      stage.String(),
		StartNanos: start.Sub(t.begin).Nanoseconds(),
		DurNanos:   d.Nanoseconds(),
	})
	t.mu.Unlock()
	return d
}

// Snapshot finalizes the trace: total wall-clock from the trace's begin to
// now, plus a copy of the recorded spans.
func (t *Trace) Snapshot() *TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	return &TraceSnapshot{
		TotalNanos: time.Since(t.begin).Nanoseconds(),
		Spans:      spans,
	}
}

// TraceSnapshot is the JSON form of a completed trace — returned to clients
// on ?trace=1 and retained by the slow-query ring.
type TraceSnapshot struct {
	// TotalNanos is the wall-clock from request arrival to response build.
	TotalNanos int64 `json:"totalNanos"`
	// Spans are the recorded stages in completion order.
	Spans []Span `json:"spans"`
}

// SpanNanos sums the span durations — what fraction of TotalNanos the
// instrumentation accounts for.
func (s *TraceSnapshot) SpanNanos() int64 {
	if s == nil {
		return 0
	}
	var sum int64
	for _, sp := range s.Spans {
		sum += sp.DurNanos
	}
	return sum
}

// String renders the trace as a compact stage=duration list for log lines,
// e.g. "parse=1.2ms execute=48ms total=51ms".
func (s *TraceSnapshot) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	for _, sp := range s.Spans {
		fmt.Fprintf(&b, "%s=%s ", sp.Stage, time.Duration(sp.DurNanos).Round(10*time.Microsecond))
	}
	fmt.Fprintf(&b, "total=%s", time.Duration(s.TotalNanos).Round(10*time.Microsecond))
	return b.String()
}
