// Package server implements restored, the long-lived ReStore query service
// of the paper's deployment model (§2/§6): instead of replaying a hard-coded
// query stream from a one-shot CLI, a daemon watches a stream of incoming
// Pig Latin workflows from many concurrent clients and reuses stored job
// outputs across them.
//
// Architecture:
//
//   - Request goroutines parse, plan, compile (System.Prepare), and serve
//     all read-only endpoints concurrently.
//   - A scheduler runs the DFS-mutating phases (eviction, rewrite, engine
//     execution, registration, dataset uploads, checkpoints) on a bounded
//     worker pool behind a bounded FIFO queue (backpressure). Which of them
//     may overlap is decided in exactly one place, the System's lease table
//     (restore.AccessSet): work on mutually disjoint read/write path sets
//     executes in parallel, conflicting work is admitted FIFO, and
//     checkpoints take the universal lease that drains everything.
//   - A single-flight group deduplicates semantically identical in-flight
//     queries — keyed on the prepared workflow's canonical plan fingerprint
//     (restore.Prepared.FlightKey), so scripts differing only in whitespace
//     or variable names still share one execution: the first becomes the
//     leader, the rest share its result.
//   - A persister write-ahead-logs every repository and DFS mutation into
//     a state directory while queries execute (fsync-batched, no drain),
//     and periodically compacts the log into a snapshot pair under the
//     system's universal lease. A restarted daemon loads the snapshot,
//     replays the log (truncating a torn final record), sweeps orphaned
//     restore/ files, and resumes with its learned repository.
//
// Invariants:
//
//   - Two operations whose declared access sets conflict never execute
//     concurrently, and a blocked one is never overtaken by a conflicting
//     later arrival (leaseTable.promote/blocked in the root access.go).
//   - Rows returned to a client are read while the execution's lease and
//     pins are still held, so they are the bytes that query produced.
//   - Everything the daemon has acknowledged to a client is either in the
//     WAL within one -wal-sync window or already in the snapshot pair;
//     recovery converges to the exact state at the end of the log no
//     matter where the process died (see persist.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	restore "repro"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// SyncEveryRecord, as Config.WALSyncInterval, makes every mutation fsync
// its WAL record before returning: nothing acknowledged is ever lost, at
// the cost of an fsync per mutation.
const SyncEveryRecord time.Duration = -1

// DefaultWALSync is the WAL fsync cadence when Config.WALSyncInterval is
// zero: the crash-loss window for acknowledged work.
const DefaultWALSync = 100 * time.Millisecond

// Config configures a Server.
type Config struct {
	// System is the ReStore deployment to serve. If nil a fresh one (empty
	// DFS, empty repository) is created.
	System *restore.System
	// Shards is the DFS namespace shard count used when System is nil: the
	// constructed System partitions its DFS namespace into Shards
	// independently locked shards (restore.WithShards), and the persister
	// runs one WAL stream per shard. Lease admission and the repository
	// are one domain at any count. <= 1 builds a one-shard namespace.
	// Ignored when System is set — pass restore.WithShards to restore.New
	// instead.
	Shards int
	// StateDir enables durable state when non-empty: the repository and DFS
	// are recovered from it at startup (snapshot + WAL replay) and every
	// later mutation is write-ahead-logged into it.
	StateDir string
	// WALSyncInterval is how often buffered WAL records are fsynced (the
	// crash-loss window). 0 selects the default (100ms);
	// SyncEveryRecord (-1) fsyncs inside every mutation.
	WALSyncInterval time.Duration
	// CompactInterval is how often the WAL is compacted into a fresh
	// snapshot pair (a universal drain). <= 0 compacts only at shutdown (and
	// on explicit POST /v1/checkpoint). Compaction is skipped when nothing
	// changed since the last one.
	CompactInterval time.Duration
	// QueueDepth bounds the execution queue (default 256); a full queue
	// rejects submissions with 503.
	QueueDepth int
	// Workers is the execution worker-pool size: how many workflows may
	// execute (or wait for a conflicting one's lease) at once (default
	// GOMAXPROCS). 1 restores strictly serialized execution.
	Workers int
	// Obs is the telemetry registry the daemon (and its System) records
	// latency histograms and gauges into. nil installs a fresh active
	// registry — or adopts one already set on the System via
	// restore.WithObserver; obs.Disabled switches recording off entirely
	// (BenchmarkServerSubmit prices the difference per request,
	// bench.trace_overhead_ratio in benchmark/ end to end).
	Obs *obs.Registry
	// SlowRingSize bounds how many slowest completions GET /v1/debug/slow
	// retains (default 64).
	SlowRingSize int
	// Logger receives structured operational logs: one completion line per
	// query with its stage breakdown, plus lifecycle events. nil discards
	// them (tests and embedded use).
	Logger *slog.Logger
	// Fleet is the distributed execution coordinator when the daemon runs
	// with a worker fleet (restored -fleet-workers). The server only reads
	// its stats — wiring the coordinator into the System's execution path
	// (restore.System.SetBackend) is the caller's job. nil means in-process
	// execution and omits the fleet section from both metrics endpoints.
	Fleet *fleet.Coordinator
	// GCInterval is the cadence of the background growth-management pass
	// (System.CollectGarbage: the reference full eviction sweep, Rule-3
	// window and size-budget enforcement, and user-output retention). It
	// runs off the request path under the System's lease table — write
	// leases on retention candidates only, so disjoint queries keep
	// executing. 0 disables the loop; per-query index-driven eviction
	// still runs.
	GCInterval time.Duration
}

// Server is the restored daemon: an HTTP/JSON front end over one shared
// restore.System.
type Server struct {
	sys     *restore.System
	sched   *scheduler
	flights flightGroup
	met     metrics
	persist *persister
	mux     *http.ServeMux
	// obsReg is the resolved telemetry registry (never nil; possibly
	// obs.Disabled), shared with the System and the persister so
	// GET /metrics renders one coherent view.
	obsReg *obs.Registry
	slow   *obs.SlowRing
	log    *slog.Logger
	fleet  *fleet.Coordinator

	httpSrv   *http.Server
	stopSave  chan struct{}
	saveWG    sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
	// compacting lets the periodic compaction run off the persistLoop
	// goroutine (it blocks on a full drain) without piling up: at most one
	// timer-driven compaction is in flight.
	compacting atomic.Bool
}

// New builds a Server, loading a previous checkpoint when cfg.StateDir holds
// one.
func New(cfg Config) (*Server, error) {
	sys := cfg.System
	if sys == nil {
		if cfg.Shards > 1 {
			sys = restore.New(restore.WithShards(cfg.Shards))
		} else {
			sys = restore.New()
		}
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Obs
	if reg == nil {
		// Adopt a registry the caller already installed on the System, so
		// library-side samples and daemon-side samples land in one place;
		// otherwise telemetry is on by default.
		if reg = sys.Observer(); reg == nil {
			reg = obs.NewRegistry()
		}
	}
	sys.SetObserver(reg)
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		sys:      sys,
		sched:    newScheduler(cfg.QueueDepth, workers),
		mux:      http.NewServeMux(),
		stopSave: make(chan struct{}),
		obsReg:   reg,
		slow:     obs.NewSlowRing(cfg.SlowRingSize),
		log:      logger,
		fleet:    cfg.Fleet,
	}
	// Built here, not in Serve, so Close always has it to shut down even
	// when it races a Serve running on another goroutine.
	s.httpSrv = &http.Server{Handler: s.mux}
	s.met.start = time.Now()
	s.met.rate = obs.NewRateWindow(s.met.start)

	if cfg.StateDir != "" {
		p, err := newPersister(cfg.StateDir, sys, cfg.WALSyncInterval < 0)
		if err != nil {
			s.sched.close()
			return nil, err
		}
		// Attached after recovery on purpose: replayed records are not live
		// append traffic and must not skew the WAL histograms.
		p.obs = reg
		s.persist = p
		walSync := cfg.WALSyncInterval
		if walSync == 0 {
			walSync = DefaultWALSync
		}
		if walSync > 0 || cfg.CompactInterval > 0 {
			s.saveWG.Add(1)
			go s.persistLoop(walSync, cfg.CompactInterval)
		}
	}

	if cfg.GCInterval > 0 {
		s.saveWG.Add(1)
		go s.gcLoop(cfg.GCInterval)
	}

	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("POST /v1/datasets", s.handleUpload)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /v1/repository", s.handleRepository)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	s.mux.HandleFunc("GET /v1/debug/slow", s.handleSlow)
	return s, nil
}

// System exposes the served deployment (tests and the daemon preload data
// through it).
func (s *Server) System() *restore.System { return s.sys }

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Close. It returns the error from
// http.Server.Serve (http.ErrServerClosed after a clean Close).
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Close shuts the server down: stop accepting HTTP, stop the persistence
// tickers, flush the WAL (the no-stall durability point — everything
// acknowledged so far is now on disk), drain the execution queue within
// ctx's deadline, compact into a clean snapshot pair, and close the log.
// A supervisor kill during a long drain loses at most the queued
// (never-acknowledged) work: the pre-drain flush already persisted the
// rest, and a half-drained WAL replays on the next start.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		// Shutdown on a never-served http.Server is a no-op that also makes
		// any later Serve return ErrServerClosed immediately.
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			s.closeErr = err
		}
		close(s.stopSave)
		s.saveWG.Wait()
		if s.persist != nil {
			if err := s.persist.flush(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		drained := s.sched.closeWithin(ctx)
		if s.persist != nil {
			if drained {
				if did, err := s.persist.compact(); err != nil && s.closeErr == nil {
					s.closeErr = err
				} else if did && err == nil {
					s.met.checkpoints.Add(1)
				}
			} else {
				// Workers are still draining in the background; capture what
				// they committed so far and let the WAL carry the rest.
				_ = s.persist.flush()
			}
			if err := s.persist.close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// persistLoop drives the two persistence cadences: frequent WAL fsyncs
// (cheap, no lease — the routine checkpoint) and rare compactions (drain
// barrier). Either ticker may be disabled (nil channel blocks forever).
func (s *Server) persistLoop(walSync, compactEvery time.Duration) {
	defer s.saveWG.Done()
	var flushC, compactC <-chan time.Time
	if walSync > 0 {
		t := time.NewTicker(walSync)
		defer t.Stop()
		flushC = t.C
	}
	if compactEvery > 0 {
		t := time.NewTicker(compactEvery)
		defer t.Stop()
		compactC = t.C
	}
	for {
		select {
		case <-flushC:
			// Best effort: a sticky WAL error resurfaces at compaction and
			// shutdown; the daemon keeps serving from memory.
			_ = s.persist.flush()
		case <-compactC:
			// Off-loop: compaction blocks on a universal drain, which can
			// far outlast the WAL-sync interval — flush ticks must keep
			// firing through it or the advertised crash-loss window
			// silently stretches to the drain time. One at a time; a tick
			// landing mid-compaction is dropped (the next one retries).
			if s.compacting.CompareAndSwap(false, true) {
				go func() {
					defer s.compacting.Store(false)
					_ = s.checkpointNow()
				}()
			}
		case <-s.stopSave:
			return
		}
	}
}

// gcLoop drives the background growth-management cadence: each tick runs
// one System.CollectGarbage pass (full sweep, window/budget, retention) and
// folds the outcome into the GC metrics. One pass at a time on this
// goroutine — a pass stalled on a retention lease simply absorbs the
// coalesced ticks behind it. Delete failures surface through the reuse
// eviction counters, never as loop failures.
func (s *Server) gcLoop(every time.Duration) {
	defer s.saveWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			t0 := time.Now()
			rep := s.sys.CollectGarbage()
			s.obsReg.ObserveGCSweep(time.Since(t0))
			s.met.gcRuns.Add(1)
			s.met.gcEvicted.Add(int64(len(rep.Evicted)))
			s.met.gcRetired.Add(int64(len(rep.Retired)))
		case <-s.stopSave:
			return
		}
	}
}

// checkpointNow runs a compaction on a worker slot and waits for it:
// persister.compact quiesces the System — the universal lease lets every
// in-flight execution finish and keeps everything arriving behind it
// parked — and only then snapshots and truncates the WAL, the drain barrier
// that keeps the repository+DFS snapshot pair consistent. Routine
// durability does NOT come through here: WAL flushes happen on their own
// cadence without any lease.
func (s *Server) checkpointNow() error {
	if s.persist == nil {
		// A client asking a stateless daemon to checkpoint is the client's
		// mistake (400), not a server fault.
		return badRequestError{errors.New("server: no state directory configured")}
	}
	var did bool
	var cerr error
	if err := s.sched.run(func() { did, cerr = s.persist.compact() }); err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	if did {
		// Skipped no-op compactions (clean system) are not checkpoints;
		// this counter stays in step with WALStats.Compactions.
		s.met.checkpoints.Add(1)
	}
	return nil
}

// ---- wire types ----

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	Script string `json:"script"`
	// ReadOutputs additionally returns each output's rows as sorted TSV
	// lines.
	ReadOutputs bool `json:"readOutputs,omitempty"`
}

// QueryResponse is the reply to POST /v1/query. The server writes it
// without building one (writeQueryReply), byte for byte as encoding/json
// would encode it; clients decode it.
type QueryResponse struct {
	// Deduped reports that this submission shared an identical in-flight
	// query's execution instead of running itself.
	Deduped bool                `json:"deduped"`
	Result  *restore.Result     `json:"result"`
	Rows    map[string][]string `json:"rows,omitempty"`
	// Trace is the submission's stage breakdown, present when the request
	// asked for it with ?trace=1. A deduped submission's trace shows
	// parse + flightWait (it ran no stages of its own); the leader's shows
	// the full pipeline.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

// ExplainRequest is the body of POST /v1/explain.
type ExplainRequest struct {
	Script string `json:"script"`
}

// UploadRequest is the body of POST /v1/datasets: a TSV dataset typed by a
// LOAD-AS style schema declaration.
type UploadRequest struct {
	Path       string   `json:"path"`
	Schema     string   `json:"schema"`
	Partitions int      `json:"partitions,omitempty"`
	Lines      []string `json:"lines"`
}

// DatasetInfo describes one DFS file in GET /v1/datasets.
type DatasetInfo struct {
	Path       string `json:"path"`
	Bytes      int64  `json:"bytes"`
	Records    int64  `json:"records"`
	Partitions int    `json:"partitions"`
}

// RepositoryResponse is the reply to GET /v1/repository: the entries in §3
// match-scan order (reusing the core Entry JSON form).
type RepositoryResponse struct {
	Entries          []*core.Entry `json:"entries"`
	TotalStoredBytes int64         `json:"totalStoredBytes"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// badRequestError marks client mistakes (unparsable script, bad schema) so
// they map to 400 instead of 500.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// ---- handlers ----

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeBody(w, r, maxScriptBody, &req) {
		return
	}
	if req.Script == "" {
		writeError(w, badRequestError{errors.New("empty script")})
		return
	}
	wantTrace := r.URL.Query().Get("trace") == "1"
	begin := time.Now()
	s.met.submitted.Add(1)
	s.met.rate.Mark(begin)
	tr := obs.NewTrace(begin)
	out := s.runQuery(&req, tr)
	snap := tr.Snapshot()
	s.obsReg.ObserveQuery(time.Duration(snap.TotalNanos))
	s.finishQuery(&req, out, begin, snap)
	if out.err != nil {
		writeError(w, out.err)
		return
	}
	var trace *obs.TraceSnapshot
	if wantTrace {
		trace = snap
	}
	writeQueryReply(w, out.deduped, out.res, out.rows, trace)
}

// finishQuery folds one finished submission (success or failure) into the
// slow-query ring and emits its structured completion line.
func (s *Server) finishQuery(req *QueryRequest, out queryOutcome, begin time.Time, snap *obs.TraceSnapshot) {
	errMsg := ""
	if out.err != nil {
		errMsg = out.err.Error()
	}
	s.slow.Add(obs.SlowQuery{
		Script:    req.Script,
		FlightKey: out.flightKey,
		When:      begin,
		Deduped:   out.deduped,
		Error:     errMsg,
		Trace:     snap,
	})
	lvl := slog.LevelInfo
	attrs := []slog.Attr{
		slog.Bool("deduped", out.deduped),
		slog.Duration("total", time.Duration(snap.TotalNanos)),
		slog.String("stages", snap.String()),
	}
	if out.flightKey != "" {
		attrs = append(attrs, slog.String("flightKey", shortKey(out.flightKey)))
	}
	if out.err != nil {
		lvl = slog.LevelWarn
		attrs = append(attrs, slog.String("error", errMsg))
	}
	s.log.LogAttrs(context.Background(), lvl, "query", attrs...)
}

// shortKey abbreviates a flight key for log lines (full keys are 64 hex
// chars; 12 is plenty to correlate).
func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// queryOutcome is one submission's final disposition: on success whether
// it shared a flight, the result, and the flight's encoded rows object (nil
// when no member asked for rows); its flight key (empty when preparation
// failed); and the error.
type queryOutcome struct {
	deduped   bool
	res       *restore.Result
	rows      []byte
	flightKey string
	err       error
}

// runQuery runs one submission through single-flight and the scheduler,
// recording its stage spans on tr (and the registry's stage histograms).
//
// Every submission prepares (parse/plan/compile — lock-free) to derive its
// canonical flight key, so semantically identical scripts dedup onto one
// flight; only the flight leader's Prepared executes, joiners discard
// theirs. The trace belongs to this submission: a flight leader's closure
// records the queue and execution stages into it, a joiner records only
// parse and flightWait (its wall-clock is the leader's execution).
func (s *Server) runQuery(req *QueryRequest, tr *obs.Trace) queryOutcome {
	t := time.Now()
	p, _, perr := s.sys.PrepareCached(req.Script)
	// The registry's parse histogram is recorded inside PrepareCached; only
	// the trace span is this caller's to add.
	tr.ObserveSince(obs.StageParse, t)
	if perr != nil {
		s.met.fail(failParse)
		return queryOutcome{err: badRequestError{perr}}
	}
	o := queryOutcome{flightKey: p.FlightKey()}
	tFlight := time.Now()
	out, shared := s.flights.do(p.FlightKey(), req.ReadOutputs, func(fl *flightHandle) flightOutcome {
		var fo flightOutcome
		// read is handed to whichever path serves the flight, and runs while
		// that path still protects the result's files: inside the fast
		// path's pin window, or inside the execution's lease and pins.
		// Sealing there fixes the set of joiners — no new one can arrive
		// afterwards, so the wantRows answer is final — and every member
		// that asked for rows gets them from files no conflicting writer or
		// concurrent eviction can touch.
		read := func(r *restore.Result) error {
			if !fl.seal() {
				return nil
			}
			tRows := time.Now()
			rows, err := readRows(s.sys, r)
			if err != nil {
				return err
			}
			s.obsReg.ObserveStage(obs.StageRows, tr.ObserveSince(obs.StageRows, tRows))
			fo.rows = rows
			return nil
		}
		// Admission-time fast path: when the fingerprint index proves a
		// fresh whole-query match, serve the stored bytes right here — no
		// worker slot, no lease, no execution. A concurrently evicted
		// entry fails its pin or freshness check inside the probe and
		// lands on the normal path below, never serving deleted bytes.
		if res, ok := s.sys.TryServeStored(p, tr, read); ok {
			s.met.hot.Add(1)
			fo.res = res
			return fo
		}
		tQueue := time.Now()
		if err := s.sched.run(func() {
			s.obsReg.ObserveStage(obs.StageQueue, tr.ObserveSince(obs.StageQueue, tQueue))
			fo.res, fo.err = s.sys.ExecutePreparedTraced(p, tr, read)
		}); err != nil {
			return flightOutcome{err: err}
		}
		return fo
	})
	if shared {
		// Joiner: its whole wait was the leader's execution.
		s.obsReg.ObserveStage(obs.StageFlightWait, tr.ObserveSince(obs.StageFlightWait, tFlight))
	}
	// Each submission lands in exactly one bucket — executed, deduped, or
	// failed — once its final outcome is known, so the identity
	// submitted = executed + deduped + failed holds: a joiner of a failed
	// flight counts as failed (not deduped).
	if out.err != nil {
		cause := failExec
		if errors.Is(out.err, errQueueFull) || errors.Is(out.err, errShuttingDown) {
			cause = failShed
		}
		s.met.fail(cause)
		o.err = out.err
		return o
	}
	o.deduped, o.res, o.rows = shared, out.res, out.rows
	if shared {
		s.met.deduped.Add(1)
	} else {
		s.met.executed.Add(1)
	}
	return o
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !decodeBody(w, r, maxScriptBody, &req) {
		return
	}
	ex, err := s.sys.Explain(req.Script)
	if err != nil {
		writeError(w, badRequestError{err})
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	if !decodeBody(w, r, maxUploadBody, &req) {
		return
	}
	if req.Path == "" || req.Schema == "" {
		writeError(w, badRequestError{errors.New("path and schema are required")})
		return
	}
	if strings.HasPrefix(req.Path, "restore/") {
		// The restore/ namespace holds repository-owned stored outputs;
		// letting a client overwrite one would silently corrupt every
		// future query rewritten to reuse it (Rule 4 only watches inputs).
		writeError(w, badRequestError{fmt.Errorf("path %q is in the reserved restore/ namespace", req.Path)})
		return
	}
	if _, err := restore.ParseSchema(req.Schema); err != nil {
		writeError(w, badRequestError{err})
		return
	}
	parts := req.Partitions
	if parts < 1 {
		parts = 1
	}
	// Dataset writes mutate the DFS (bumping versions Rule 4 watches), so
	// they serialize with queries touching the path — and only those:
	// LoadTSV's write lease covers just the uploaded path, so uploads ride
	// alongside disjoint query execution.
	var loadErr error
	if err := s.sched.run(func() {
		loadErr = s.sys.LoadTSV(req.Path, req.Schema, req.Lines, parts)
	}); err != nil {
		writeError(w, err)
		return
	}
	if loadErr != nil {
		writeError(w, loadErr)
		return
	}
	s.met.uploads.Add(1)
	st, err := s.sys.StatPath(req.Path)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DatasetInfo{Path: st.Path, Bytes: st.Bytes, Records: st.Records, Partitions: st.Partitions})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	out := []DatasetInfo{} // never null: clients iterate the array
	for _, p := range s.sys.FS().List(prefix) {
		st, err := s.sys.FS().StatFile(p)
		if err != nil {
			continue // deleted between List and Stat
		}
		out = append(out, DatasetInfo{Path: st.Path, Bytes: st.Bytes, Records: st.Records, Partitions: st.Partitions})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRepository(w http.ResponseWriter, r *http.Request) {
	repo := s.sys.Repository()
	writeJSON(w, http.StatusOK, RepositoryResponse{
		// Snapshot, not live pointers: encoding runs concurrently with
		// query execution mutating UseCount/LastUsedSeq.
		Entries:          repo.OrderedSnapshot(),
		TotalStoredBytes: repo.TotalStoredBytes(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.met.snapshot()
	snap.QueueDepth = s.sched.queueDepth()
	snap.Executing = s.sched.executing()
	snap.Workers = int64(s.sched.workers)
	if s.persist != nil {
		snap.WAL = s.persist.stats()
	}
	if s.fleet != nil {
		fs := s.fleet.Stats()
		snap.Fleet = &fs
	}
	snap.Reuse = s.sys.Stats()
	snap.Latency = summarize(s.obsReg.Query.Snapshot())
	snap.LeaseWait = summarize(s.obsReg.LeaseWait.Snapshot())
	repo := s.sys.Repository()
	snap.RepositoryEntries = repo.Len()
	snap.RepositoryStoredBytes = repo.TotalStoredBytes()
	writeJSON(w, http.StatusOK, snap)
}

// handleSlow serves the retained slowest completions, slowest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	out := s.slow.Snapshot()
	if out == nil {
		out = []obs.SlowQuery{} // never null: clients iterate the array
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if err := s.checkpointNow(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Request body limits. A script is text a person wrote; an upload carries
// data, bounded by the WAL frame limit its records must fit.
const (
	maxScriptBody = 1 << 20
	maxUploadBody = 1 << 30
)

// decodeBody decodes a JSON request body of at most limit bytes into v. On
// failure it answers the request itself (413 past the limit, 400 for
// anything else) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		writeError(w, badRequestError{fmt.Errorf("bad request body: %w", err)})
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var bad badRequestError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		code = http.StatusRequestEntityTooLarge
	case errors.As(err, &bad):
		code = http.StatusBadRequest
	case errors.Is(err, errQueueFull), errors.Is(err, errShuttingDown):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
