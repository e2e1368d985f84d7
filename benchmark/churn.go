package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"time"

	restore "repro"
	"repro/internal/server"
)

// churnState is the generator side of churn_durable: the current content of
// every data set (as its owner last uploaded it), each client's generators
// and op index, and what the post-run durability checks must find again.
type churnState struct {
	e        *env
	stateDir string
	sets     []*churnSet
	clients  []*churnClient
	// uploadedBytes is the TSV payload of every acknowledged upload.
	uploadedBytes int64

	// Filled by finish: clean-reopen times, and the crash copy the persist
	// kernels replay.
	recoveries   []time.Duration
	crashDir     string
	crashRecover time.Duration
}

type churnSet struct {
	cur *churnDataset
	// lastConstant is the filter constant of the most recent query over this
	// data set (-1: none yet); the recovered daemons must answer it again.
	lastConstant int
}

// churnClient generates one client's ops from two sources. shape decides
// what the n-th op is — query or re-upload, of which popularity rank, with
// which filter constant — and is the same on every seed, so that the access
// pattern (how often the hottest data set is invalidated, what the budget
// evicts) is part of the workload's definition and the count metrics do not
// follow the seed. data comes from --seed: the rows of every data set, and
// which data set holds which popularity rank.
type churnClient struct {
	shape *rand.Rand
	data  *rand.Rand
	owned []int // data sets with index = client (mod clients), by popularity rank
	zipf  *rand.Zipf
	n     int // ops generated so far
}

const churnClients = 2

// churnUploadShare is the fraction of ops that re-upload an owned data set
// (Rule-4 invalidation, then cold re-execution of what read it).
const churnUploadShare = 0.05

func churnOptions(sz sizes) []restore.Option {
	return []restore.Option{restore.WithPolicy(restore.Policy{
		KeepAll: true, CheckInputVersions: true, RepoBudgetBytes: sz.churnBudget,
	})}
}

// churnConfig is the daemon configuration: durable state, default WAL sync
// (100 ms), and no timer-driven background work — GC and compaction happen by
// op index, so two runs do them at the same points of the sequence.
func churnConfig(dir string) server.Config {
	return server.Config{StateDir: dir}
}

func setupChurn(e *env) (*instance, error) {
	dir, err := os.MkdirTemp(e.tmp, "churn-state-")
	if err != nil {
		return nil, err
	}
	cs := &churnState{e: e, stateDir: dir}
	in := &instance{
		classes:  []string{"filter-group-agg"},
		nClients: churnClients,
		churn:    cs,
		walSync:  fmt.Sprintf("interval %v (server.DefaultWALSync)", server.DefaultWALSync),
	}
	d, err := startDaemon(newSystem(churnOptions(e.sz)...), churnConfig(dir), e.tr)
	if err != nil {
		return nil, err
	}
	in.d = d

	seedRNG := rand.New(rand.NewSource(e.seed))
	for i := 0; i < e.sz.churnSets; i++ {
		cs.sets = append(cs.sets, &churnSet{cur: genChurnDataset(seedRNG, e.sz.churnRows), lastConstant: -1})
	}
	for c := 0; c < churnClients; c++ {
		cl := &churnClient{
			shape: rand.New(rand.NewSource(int64(c) + 1)),
			data:  rand.New(rand.NewSource(e.seed*7919 + int64(c) + 1)),
		}
		for i := c; i < e.sz.churnSets; i += churnClients {
			cl.owned = append(cl.owned, i)
		}
		cl.data.Shuffle(len(cl.owned), func(i, j int) { cl.owned[i], cl.owned[j] = cl.owned[j], cl.owned[i] })
		cl.zipf = rand.NewZipf(cl.shape, 1.2, 1, uint64(len(cl.owned)-1))
		cs.clients = append(cs.clients, cl)
	}
	// Initial uploads go through POST /v1/datasets like every later one.
	for i, s := range cs.sets {
		if _, err := d.submit("/v1/datasets", cs.uploadRequest(i, s.cur)); err != nil {
			return nil, err
		}
	}
	// Warm-up, untimed: the same generator, far enough to fill the
	// repository to its byte budget so eviction is active from op one.
	warm := make([]*client, churnClients)
	lists := make([][]*op, churnClients)
	for c := range lists {
		warm[c] = newClient()
		lists[c] = cs.generate(c, e.sz.churnWarmOps)
	}
	runClients(d, warm, lists, 0, nil)
	for _, c := range warm {
		if c.failed > 0 {
			return nil, fmt.Errorf("churn warm-up: %d ops failed: %s", c.failed, c.first)
		}
	}
	in.inputBytes = func() int64 {
		var paths []string
		for i := range cs.sets {
			paths = append(paths, churnPath(i))
		}
		return in.d.sys.FS().TotalBytes(paths...)
	}
	in.segment = func(seg int) ([][]*op, error) {
		lists := make([][]*op, churnClients)
		// Client 1 opens every churnCkptSegs-th segment with POST
		// /v1/checkpoint. A checkpoint is the process's largest allocation
		// (the encoded snapshot), and how far the resident set overshoots
		// follows where in a collector cycle it starts: placed anywhere in a
		// segment, peak_rss_mb spread 17 % between runs. A segment starts
		// right after the untimed runtime.GC(), so here every checkpoint
		// starts from the same heap.
		if seg%e.sz.churnCkptSegs == e.sz.churnCkptSegs-1 {
			lists[1] = []*op{{kind: opCheckpoint}}
		}
		for c := range lists {
			lists[c] = append(lists[c], cs.generate(c, e.sz.churnSegOps-len(lists[c]))...)
		}
		return lists, nil
	}
	in.verify = func() error { return cs.verifyAgainstPig(16) }
	in.finish = func() (tally, error) { return cs.finish(in) }
	in.invariant = func(m *measured) string {
		switch {
		case m.per(cPlanCacheHits, cSubmitted) >= 0.9:
			return fmt.Sprintf("churn_durable hit the plan cache on %d of %d queries; the working set must exceed it", m.counts[cPlanCacheHits], m.counts[cSubmitted])
		case m.counts[cEvicted] == 0:
			return "churn_durable evicted nothing; the repository budget must be active"
		}
		return ""
	}
	return in, nil
}

func (cs *churnState) uploadRequest(i int, ds *churnDataset) *server.UploadRequest {
	for _, l := range ds.lines {
		cs.uploadedBytes += int64(len(l) + 1)
	}
	return &server.UploadRequest{Path: churnPath(i), Schema: churnSchema, Partitions: cs.e.sz.churnParts, Lines: ds.lines}
}

// generate returns client c's next n ops. A client's ops run in order and
// only it touches its data sets, so the state at generation time is the
// state at execution time and every query's expected rows are known here.
func (cs *churnState) generate(c, n int) []*op {
	cl := cs.clients[c]
	ops := make([]*op, 0, n)
	for len(ops) < n {
		cl.n++
		switch {
		case c == 0 && cl.n%cs.e.sz.churnGCEvery == 0:
			ops = append(ops, &op{kind: opGC})
		case cl.shape.Float64() < churnUploadShare:
			i := cl.owned[cl.shape.Intn(len(cl.owned))]
			ds := genChurnDataset(cl.data, cs.e.sz.churnRows)
			cs.sets[i].cur = ds
			ops = append(ops, uploadOp(cs.uploadRequest(i, ds)))
		default:
			i := cl.owned[cl.zipf.Uint64()]
			constant := churnConstant(cl.shape.Intn(churnConstants))
			s := cs.sets[i]
			s.lastConstant = constant
			ops = append(ops, queryOp(0, churnScript(i, constant), churnOutPath(i), rowsTail(s.cur.expected(constant))))
		}
	}
	return ops
}

// verifyAgainstPig checks the native oracle against plain Pig: n seeded
// (data set, constant) pairs run on a System with reuse, heuristic and
// registration off, and must return exactly expected().
func (cs *churnState) verifyAgainstPig(n int) error {
	o, err := newOracle(nil)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cs.e.seed + 99))
	for j := 0; j < n; j++ {
		i := rng.Intn(len(cs.sets))
		constant := churnConstant(rng.Intn(churnConstants))
		ds := cs.sets[i].cur
		if err := o.sys.LoadTSV(churnPath(i), churnSchema, ds.lines, cs.e.sz.churnParts); err != nil {
			return err
		}
		got, err := o.rows(churnScript(i, constant), churnOutPath(i))
		if err != nil {
			return err
		}
		if !slices.Equal(got, ds.expected(constant)) {
			return fmt.Errorf("native oracle disagrees with plain Pig on %s, v > %d", churnPath(i), constant)
		}
	}
	return nil
}

// finish runs the durability checks, untimed, after the measured phase:
//
//  1. crash: more than one WAL-sync interval after the last acknowledged
//     op, the state directory is copied as it is on disk while the daemon
//     still runs (what a kill would leave); a second daemon recovers from
//     the copy and must hold every acknowledged data-set version and answer
//     every data set's last acknowledged query with the recorded rows;
//  2. clean: the daemon is closed and reopened on its state directory
//     `recoveries` times (recovery_s = median) and checked the same way.
func (cs *churnState) finish(in *instance) (tally, error) {
	var t tally
	time.Sleep(server.DefaultWALSync*5/2 + 50*time.Millisecond)
	crashDir, err := os.MkdirTemp(cs.e.tmp, "churn-crash-")
	if err != nil {
		return t, err
	}
	if err := os.CopyFS(crashDir, os.DirFS(cs.stateDir)); err != nil {
		return t, err
	}
	// The persist kernels replay a second pristine copy: recovering from
	// crashDir below compacts it.
	cs.crashDir = crashDir + "-wal"
	if err := os.CopyFS(cs.crashDir, os.DirFS(cs.stateDir)); err != nil {
		return t, err
	}
	d, dt, err := cs.reopen(crashDir)
	if err != nil {
		return t, fmt.Errorf("recover from crash copy: %w", err)
	}
	cs.crashRecover = dt
	t.add(cs.check(d, "crash copy"))
	if err := d.close(); err != nil {
		return t, err
	}

	if err := in.close(); err != nil {
		return t, err
	}
	reopens := 1
	if cs.e.tr != nil {
		reopens = cs.e.sz.recoveries
	}
	for i := 0; i < reopens; i++ {
		d, dt, err := cs.reopen(cs.stateDir)
		if err != nil {
			return t, fmt.Errorf("reopen %d: %w", i, err)
		}
		cs.recoveries = append(cs.recoveries, dt)
		if i == 0 {
			t.add(cs.check(d, "clean reopen"))
		}
		if i == reopens-1 {
			in.d = d // left open for the end-of-run counters; closed by the caller
			break
		}
		if err := d.close(); err != nil {
			return t, err
		}
	}
	return t, nil
}

// reopen starts a daemon on dir and times server.New until /v1/healthz
// answers.
func (cs *churnState) reopen(dir string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(newSystem(churnOptions(cs.e.sz)...), churnConfig(dir), nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.Get(d.url + "/v1/healthz")
	if err != nil {
		_ = d.close()
		return nil, 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_ = d.close()
		return nil, 0, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return d, time.Since(t0), nil
}

// check requires a recovered daemon to hold every data set as last
// acknowledged and to answer each one's last acknowledged query correctly.
func (cs *churnState) check(d *daemon, what string) tally {
	var t tally
	for i, s := range cs.sets {
		t.attempted++
		got, err := fileHash(d.sys.FS(), churnPath(i))
		if err != nil {
			t.fail("%s: %s: %v", what, churnPath(i), err)
		} else if got != sortedLinesHash(s.cur.lines) {
			t.fail("%s: %s holds a version that was not the last acknowledged one", what, churnPath(i))
		}
		if s.lastConstant < 0 {
			continue
		}
		t.attempted++
		if err := d.warmQuery(churnScript(i, s.lastConstant), churnOutPath(i), s.cur.expected(s.lastConstant)); err != nil {
			t.fail("%s: %v", what, err)
		}
	}
	return t
}
