package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapred"
)

// WorkerConfig configures one fleet worker process.
type WorkerConfig struct {
	// Addr is the worker's advertised base URL (how peers and the
	// coordinator reach it). A worker recognizes its own address in RunRefs
	// and reads those runs from memory instead of pulling over HTTP.
	Addr string
	// Slots bounds how many tasks execute concurrently on this worker,
	// emulating a machine with that many cores; 0 selects GOMAXPROCS.
	Slots int
	// Client performs peer shuffle pulls; nil selects a default client.
	Client *http.Client
}

// Worker executes map tasks and reduce partitions shipped by a fleet
// coordinator. It is stateless with respect to the DFS — inputs arrive as
// raw bytes, outputs return as raw bytes — and retains only the encoded
// shuffle runs of executed map tasks so reduce-side peers can pull them.
type Worker struct {
	cfg WorkerConfig
	sem chan struct{}

	mapTasks    atomic.Int64
	reduceTasks atomic.Int64

	mu   sync.Mutex
	jobs map[string]*workerJob

	// failNextMap / tornNextShuffle are fault-injection hooks: when
	// positive, the next map request fails with HTTP 500 / the next shuffle
	// pull serves a truncated payload. Tests use them to exercise retry and
	// torn-pull detection.
	failNextMap     atomic.Int32
	tornNextShuffle atomic.Int32
}

// workerJob is one job run's retained state: the decoded execution context
// (decoded once, reused by every task of the run) and the encoded runs.
type workerJob struct {
	jc   *mapred.JobContext
	runs map[runKey][]byte
}

type runKey struct{ task, part int }

// NewWorker constructs a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	slots := cfg.Slots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{cfg: cfg, sem: make(chan struct{}, slots), jobs: make(map[string]*workerJob)}
}

// SetAddr updates the worker's advertised address (tests bind it after the
// HTTP listener picks a port). Call before serving traffic.
func (w *Worker) SetAddr(addr string) { w.cfg.Addr = addr }

// Handler returns the worker's HTTP API:
//
//	POST /v1/map      execute or replay one map task
//	POST /v1/reduce   execute one reduce partition (pulls peer runs)
//	GET  /v1/shuffle  serve one retained encoded run to a peer
//	POST /v1/release  free a finished job run's retained state
//	GET  /v1/healthz  liveness + task counters
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", w.handleMap)
	mux.HandleFunc("POST /v1/reduce", w.handleReduce)
	mux.HandleFunc("GET /v1/shuffle", w.handleShuffle)
	mux.HandleFunc("POST /v1/release", w.handleRelease)
	mux.HandleFunc("GET /v1/healthz", w.handleHealth)
	return mux
}

// job returns the retained state for a job run, decoding the wire envelope
// (and re-verifying its plan fingerprint) on first sight.
func (w *Worker) job(key string, env []byte, reduceParts int, combine bool) (*workerJob, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if wj, ok := w.jobs[key]; ok {
		return wj, nil
	}
	job, err := mapred.DecodeJob(env)
	if err != nil {
		return nil, err
	}
	wj := &workerJob{jc: mapred.NewJobContext(job, reduceParts, combine), runs: make(map[runKey][]byte)}
	w.jobs[key] = wj
	return wj, nil
}

// acquire takes an execution slot; the returned func gives it back.
func (w *Worker) acquire() func() {
	w.sem <- struct{}{}
	return func() { <-w.sem }
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, status int, badAddr string, err error) {
	writeJSON(rw, status, errorResponse{Error: err.Error(), BadAddr: badAddr})
}

// maxTaskBody bounds a task request body: a map task's input split or a
// reduce partition's envelope, no larger than one WAL frame.
const maxTaskBody = 1 << 30

// decodeTask decodes a task request body of at most maxTaskBody bytes into
// v. On failure it answers the request itself (413 past the limit, 400 for
// malformed JSON) and returns false.
func decodeTask(rw http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxTaskBody)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(rw, status, "", err)
	return false
}

func (w *Worker) handleMap(rw http.ResponseWriter, r *http.Request) {
	if w.failNextMap.Add(-1) >= 0 {
		writeError(rw, http.StatusInternalServerError, "", fmt.Errorf("fleet: injected map fault"))
		return
	}
	w.failNextMap.Store(0)
	var req mapRequest
	if !decodeTask(rw, r, &req) {
		return
	}
	wj, err := w.job(req.Key, req.Job, req.ReduceParts, req.Combine)
	if err != nil {
		writeError(rw, http.StatusUnprocessableEntity, "", err)
		return
	}
	release := w.acquire()
	defer release()
	var mr *mapred.MapResult
	if req.Replay {
		mr, err = mapred.ReplayMapTask(r.Context(), wj.jc, req.Spec, req.ReplayTags)
	} else {
		mr, err = mapred.ExecMapTask(r.Context(), wj.jc, req.Spec, req.Input)
	}
	if err != nil {
		writeError(rw, http.StatusUnprocessableEntity, "", err)
		return
	}
	// Retain the encoded runs for peer pulls. Duplicate completions (the
	// coordinator re-executing a task another partition already recovered)
	// overwrite byte-identical payloads, so retention is idempotent.
	encoded := mr.EncodedRuns()
	w.mu.Lock()
	for i, ref := range mr.Runs {
		wj.runs[runKey{ref.TaskIdx, ref.Part}] = encoded[i]
	}
	w.mu.Unlock()
	w.mapTasks.Add(1)
	writeJSON(rw, http.StatusOK, mapResponse{
		Stores:       mr.Stores,
		Runs:         mr.Runs,
		InputBytes:   mr.InputBytes,
		ShuffleBytes: mr.ShuffleBytes,
	})
}

func (w *Worker) handleReduce(rw http.ResponseWriter, r *http.Request) {
	var req reduceRequest
	if !decodeTask(rw, r, &req) {
		return
	}
	wj, err := w.job(req.Key, req.Job, req.ReduceParts, req.Combine)
	if err != nil {
		writeError(rw, http.StatusUnprocessableEntity, "", err)
		return
	}
	release := w.acquire()
	defer release()
	var pulled int64
	var badAddr string
	fetch := func(ctx context.Context, ref mapred.RunRef) ([]byte, error) {
		if ref.Addr == w.cfg.Addr {
			w.mu.Lock()
			data, ok := wj.runs[runKey{ref.TaskIdx, ref.Part}]
			w.mu.Unlock()
			if !ok {
				badAddr = ref.Addr
				return nil, fmt.Errorf("fleet: run task %d part %d not retained locally", ref.TaskIdx, ref.Part)
			}
			return data, nil
		}
		data, err := w.pullRun(ctx, req.Key, ref)
		if err != nil {
			badAddr = ref.Addr
			return nil, err
		}
		// A torn pull shows up as a byte-length mismatch against the run's
		// advertised size before the record decoder even runs; attribute it
		// to the holder so the coordinator probes the right peer.
		if ref.Bytes > 0 && int64(len(data)) != ref.Bytes {
			badAddr = ref.Addr
			return nil, fmt.Errorf("fleet: torn shuffle pull: run task %d part %d from %s: got %d bytes, want %d",
				ref.TaskIdx, ref.Part, ref.Addr, len(data), ref.Bytes)
		}
		pulled += int64(len(data))
		return data, nil
	}
	rr, err := mapred.ExecReducePartition(r.Context(), wj.jc, req.Part, req.Refs, mapred.NewFetchTransport(fetch))
	if err != nil {
		// Torn decodes surface from the transport after a successful HTTP
		// pull; attribute them to the run's holder too so the coordinator
		// probes the right peer.
		status := http.StatusUnprocessableEntity
		if badAddr != "" {
			status = http.StatusBadGateway
		}
		writeError(rw, status, badAddr, err)
		return
	}
	w.reduceTasks.Add(1)
	writeJSON(rw, http.StatusOK, reduceResponse{Stores: rr.Stores, PulledBytes: pulled})
}

// pullRun fetches one encoded run from the peer holding it.
func (w *Worker) pullRun(ctx context.Context, key string, ref mapred.RunRef) ([]byte, error) {
	u := fmt.Sprintf("%s/v1/shuffle?key=%s&task=%d&part=%d",
		ref.Addr, url.QueryEscape(key), ref.TaskIdx, ref.Part)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("fleet: shuffle pull %s: %s: %s", u, resp.Status, body)
	}
	return io.ReadAll(resp.Body)
}

func (w *Worker) handleShuffle(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	task, err1 := strconv.Atoi(q.Get("task"))
	part, err2 := strconv.Atoi(q.Get("part"))
	if err1 != nil || err2 != nil {
		writeError(rw, http.StatusBadRequest, "", fmt.Errorf("fleet: bad shuffle query %q", r.URL.RawQuery))
		return
	}
	w.mu.Lock()
	wj := w.jobs[q.Get("key")]
	var data []byte
	var ok bool
	if wj != nil {
		data, ok = wj.runs[runKey{task, part}]
	}
	w.mu.Unlock()
	if !ok {
		writeError(rw, http.StatusNotFound, "", fmt.Errorf("fleet: run task %d part %d not retained", task, part))
		return
	}
	if w.tornNextShuffle.Add(-1) >= 0 {
		data = data[:len(data)/2] // injected torn pull
	} else {
		w.tornNextShuffle.Store(0)
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	_, _ = rw.Write(data)
}

func (w *Worker) handleRelease(rw http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !decodeTask(rw, r, &req) {
		return
	}
	w.mu.Lock()
	delete(w.jobs, req.Key)
	w.mu.Unlock()
	writeJSON(rw, http.StatusOK, struct{}{})
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	jobs := len(w.jobs)
	runs := 0
	for _, wj := range w.jobs {
		runs += len(wj.runs)
	}
	w.mu.Unlock()
	writeJSON(rw, http.StatusOK, healthResponse{
		OK:           true,
		Addr:         w.cfg.Addr,
		MapTasks:     w.mapTasks.Load(),
		ReduceTasks:  w.reduceTasks.Load(),
		Jobs:         jobs,
		RetainedRuns: runs,
	})
}
