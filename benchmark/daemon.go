package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	restore "repro"
	"repro/internal/server"
)

// daemon is one in-process restored: the real internal/server over a
// loopback listener, with every sleep knob at zero (WithJobLatency,
// FS.SetOpLatency and TaskDelay are never set).
type daemon struct {
	srv  *server.Server
	sys  *restore.System
	url  string
	hs   *http.Server
	done chan error
	// backend is the traced backend wrapper (nil on an untraced daemon).
	backend *tracedBackend
}

// hostShards is the restored default on this host: -workers and -shards
// both default to GOMAXPROCS. The recorded numbers are for a 2-core host; the
// value is pinned so the workloads (2 clients, 2 owned halves) stay the same
// program configuration wherever they run.
const hostShards = 2

// newSystem builds a System with the restored defaults: aggressive
// heuristic, keep-all + Rule 4, plan cache 256, shards = 2. extra options
// come last so a workload can override (budget policy, keep-results).
func newSystem(extra ...restore.Option) *restore.System {
	opts := append([]restore.Option{
		restore.WithHeuristic(restore.HeuristicAggressive),
		restore.WithPolicy(restore.Policy{KeepAll: true, CheckInputVersions: true}),
		restore.WithPlanCache(restore.DefaultPlanCacheSize),
		restore.WithShards(hostShards),
	}, extra...)
	return restore.New(opts...)
}

// startDaemon serves sys on a fresh loopback port. With a tracer the handler,
// backend and task-runner wrappers are installed; without one the daemon is
// exactly what cmd/restored builds.
func startDaemon(sys *restore.System, cfg server.Config, tr *tracer) (*daemon, error) {
	d := &daemon{sys: sys, done: make(chan error, 1)}
	if tr != nil {
		d.backend = tr.instrument(sys)
	}
	cfg.System = sys
	cfg.Workers = hostShards
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close(context.Background())
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	if tr != nil {
		d.hs = &http.Server{Handler: tr.handler(srv.Handler())}
		go func() { d.done <- d.hs.Serve(ln) }()
	} else {
		go func() { d.done <- srv.Serve(ln) }()
	}
	return d, nil
}

// close shuts the daemon down cleanly (drain, compact, close the WAL) and
// waits for its serve goroutine.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if d.hs != nil {
		err = d.hs.Shutdown(ctx)
	}
	if cerr := d.srv.Close(ctx); err == nil {
		err = cerr
	}
	if serr := <-d.done; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// metrics fetches GET /v1/metrics through the daemon's own handler.
func (d *daemon) metrics() (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	resp, err := http.Get(d.url + "/v1/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// ---- ops ----

type opKind uint8

const (
	opQuery opKind = iota
	opUpload
	opGC         // in-process System.CollectGarbage, by op index
	opCheckpoint // POST /v1/checkpoint, by op index
)

// op is one step of a client's fixed, seeded sequence.
type op struct {
	kind  opKind
	class int // index into the workload's class names (queries only)
	// script/readOutputs or upload are what the op submits; body is the
	// same thing pre-marshaled, so the timed loop does no JSON encoding.
	script string
	upload *server.UploadRequest
	body   []byte
	out    string // the script's out/ path (queries)
	// marker+tail is what a correct reply ends with (queries with rows).
	marker, tail []byte
}

func queryOp(class int, script, out string, tail []byte) *op {
	body, err := json.Marshal(server.QueryRequest{Script: script, ReadOutputs: true})
	if err != nil {
		panic(err)
	}
	return &op{kind: opQuery, class: class, script: script, body: body, out: out,
		marker: rowsMarker(out), tail: tail}
}

func uploadOp(req *server.UploadRequest) *op {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return &op{kind: opUpload, upload: req, body: body}
}

// replyOK reports whether a /v1/query reply carries exactly the expected
// rows: it must end with `"rows":{"<out>":` + the expected lines + `}}`.
func (o *op) replyOK(body []byte) bool {
	if !bytes.HasSuffix(body, o.tail) {
		return false
	}
	return bytes.HasSuffix(body[:len(body)-len(o.tail)], o.marker)
}

// sample is one timed op.
type sample struct {
	kind  opKind
	class int
	d     time.Duration
	span  int // client span ID on a traced run, else -1
}

// client is one closed-loop caller: it sends its next op only after the
// previous reply has been read. A raw net/http client that checks the status
// and the reply's bytes and never decodes them — decoding 100 KB JSON replies
// here would be measured as the program.
type client struct {
	tally
	hc  *http.Client
	buf bytes.Buffer

	samples   []sample
	respBytes int64
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}}
}

// post sends one request and leaves the reply in c.buf.
func (c *client) post(url string, body []byte, spanID int, out string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID >= 0 {
		req.Header.Set(hdrSpan, strconv.Itoa(spanID))
		if out != "" {
			req.Header.Set(hdrOut, out)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// run executes one op against d, timing it and checking its reply. opIdx is
// the op's index in the run (the trace's query id).
func (c *client) run(d *daemon, o *op, opIdx int, tr *tracer) {
	spanID := -1
	if tr != nil {
		spanID = tr.begin(spanClient, -1, opIdx)
	}
	t0 := time.Now()
	var status int
	var err error
	switch o.kind {
	case opQuery:
		status, err = c.post(d.url+"/v1/query", o.body, spanID, o.out)
	case opUpload:
		status, err = c.post(d.url+"/v1/datasets", o.body, spanID, "")
	case opCheckpoint:
		status, err = c.post(d.url+"/v1/checkpoint", nil, spanID, "")
	case opGC:
		d.sys.CollectGarbage()
		status = http.StatusOK
	}
	el := time.Since(t0)
	if tr != nil {
		tr.end(spanID)
	}
	c.attempted++
	c.samples = append(c.samples, sample{o.kind, o.class, el, spanID})
	c.respBytes += int64(c.buf.Len())
	switch {
	case err != nil:
		c.fail("op %d: %v", opIdx, err)
	case status != http.StatusOK:
		c.fail("op %d: status %d: %.200s", opIdx, status, c.buf.String())
	case o.kind == opQuery && !o.replyOK(c.buf.Bytes()):
		c.fail("op %d (%s): reply rows differ from the oracle's (%d bytes, want a %d-byte rows tail)",
			opIdx, o.out, c.buf.Len(), len(o.tail))
	}
}

// runClients drives every client through its op list concurrently and waits
// for all of them. base is the first op index of this segment; client i's
// j-th op gets index base + j*len(lists) + i.
func runClients(d *daemon, clients []*client, lists [][]*op, base int, tr *tracer) {
	var wg sync.WaitGroup
	for i := range lists {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j, o := range lists[i] {
				clients[i].run(d, o, base+j*len(lists)+i, tr)
			}
		}(i)
	}
	wg.Wait()
}

// rowsOf decodes a /v1/query reply and returns the rows of out (set-up and
// warm-up only; the timed loop never decodes).
func rowsOf(body []byte, out string) ([]string, error) {
	var resp server.QueryResponse
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
		return nil, err
	}
	rows, ok := resp.Rows[out]
	if !ok {
		return nil, fmt.Errorf("reply has no rows for %s", out)
	}
	return rows, nil
}

// submit posts one untimed request and returns the reply body.
func (d *daemon) submit(path string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, data)
	}
	return data, nil
}

// queryRows submits a script untimed and returns the rows of out.
func (d *daemon) queryRows(script, out string) ([]string, error) {
	body, err := d.submit("/v1/query", server.QueryRequest{Script: script, ReadOutputs: true})
	if err != nil {
		return nil, err
	}
	rows, err := rowsOf(body, out)
	if err != nil {
		return nil, err
	}
	// The timed loop compares reply bytes without decoding them, which holds
	// only while "rows" is the last member of server.QueryResponse. Every
	// warm-up reply is checked both ways, so a change of that layout fails
	// here, with the reason, and not as thousands of wrong-reply ops.
	if o := (&op{marker: rowsMarker(out), tail: rowsTail(rows)}); !o.replyOK(body) {
		return nil, fmt.Errorf("the /v1/query reply for %s does not end with its rows object: the layout of server.QueryResponse changed and replyOK must follow it", out)
	}
	return rows, nil
}

// warmQuery submits a script untimed and requires its rows to equal want as
// a multiset (both sides are sorted TSV lines).
func (d *daemon) warmQuery(script, out string, want []string) error {
	got, err := d.queryRows(script, out)
	if err != nil {
		return err
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("warm-up %s: daemon returned %d rows that differ from the oracle's %d", out, len(got), len(want))
	}
	return nil
}
