package fleet

// Fleet backend battery: differential equivalence against the in-process
// backend, fault injection (worker crash before/during/after the map phase,
// torn shuffle pulls, duplicate task completion), and the kill-a-worker
// end-to-end recovery proof where a lost map task is rebuilt from stored
// sub-job outputs (reuse as recovery) instead of re-executed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	restore "repro"
	"repro/internal/logical"
	"repro/internal/mapred"
	"repro/internal/mrcompile"
	"repro/internal/oracle"
	"repro/internal/physical"
	"repro/internal/piglatin"
)

// testFleet is N workers behind httptest servers plus the addresses a
// coordinator dispatches to.
type testFleet struct {
	workers []*Worker
	servers []*httptest.Server
	addrs   []string
}

// startFleet boots n workers; wrap, when non-nil, is put in front of worker
// i's handler (request counting).
func startFleet(t testing.TB, n int, cfg WorkerConfig, wrap func(i int, h http.Handler) http.Handler) *testFleet {
	t.Helper()
	tf := &testFleet{}
	for i := 0; i < n; i++ {
		w := NewWorker(cfg)
		h := w.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		w.SetAddr(srv.URL)
		tf.workers = append(tf.workers, w)
		tf.servers = append(tf.servers, srv)
		tf.addrs = append(tf.addrs, srv.URL)
	}
	t.Cleanup(func() {
		for _, srv := range tf.servers {
			srv.Close()
		}
	})
	return tf
}

// newFleetSystem builds a System executing through a fleet coordinator wired
// the way restored -fleet-workers wires it (repository-or-restore/-prefix
// RepoCheck).
func newFleetSystem(t *testing.T, addrs []string, opts ...restore.Option) (*restore.System, *Coordinator) {
	t.Helper()
	sys := restore.New(opts...)
	coord := NewCoordinator(sys.Engine(), Config{
		FS:      sys.FS(),
		Workers: addrs,
		RepoCheck: func(path string) bool {
			return sys.Repository().ReferencesPath(path) || strings.HasPrefix(path, "restore/")
		},
	})
	sys.SetBackend(coord)
	return sys, coord
}

// loadFleetTables loads the oracle's seeded tables under data/ into a
// system and returns them.
func loadFleetTables(t *testing.T, s *restore.System, seed int64) []oracle.Table {
	t.Helper()
	tables := oracle.Tables(seed, "data")
	if err := oracle.Load(s.FS(), tables); err != nil {
		t.Fatal(err)
	}
	return tables
}

// groupQuery is the canonical blocking query the fault tests run: one job,
// injected map-side sub-job stores (aggressive heuristic), a reduce phase.
const groupQuery = `F = load 'data/facts' as (k:chararray, a:int, b:int, c:chararray, d:double);
S = filter F by a > 20;
G = group S by k;
R = foreach G generate group, COUNT(S), SUM(S.a);
store R into 'out/fault';
`

// exportState captures repository + DFS for byte-level comparison.
func exportState(t *testing.T, s *restore.System) []byte {
	t.Helper()
	var repo, fsb bytes.Buffer
	if err := s.SaveState(&repo, &fsb); err != nil {
		t.Fatal(err)
	}
	return append(repo.Bytes(), fsb.Bytes()...)
}

// runAndRead executes one query and returns its output rows.
func runAndRead(t *testing.T, s *restore.System, src, out string) []string {
	t.Helper()
	res, err := s.Execute(src)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, src)
	}
	rows, err := s.ReadOutputTSV(res, out)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestFleetDifferentialOracle: a fleet-backed system must be observationally
// identical to the in-process one on the oracle generator's seeded scripts —
// the same rewrite decisions and byte-identical final repository + DFS
// state — and both must store the oracle's rows.
func TestFleetDifferentialOracle(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tf := startFleet(t, 2, WorkerConfig{}, nil)
			local := restore.New()
			fleetSys, coord := newFleetSystem(t, tf.addrs)
			tables := loadFleetTables(t, local, seed)
			loadFleetTables(t, fleetSys, seed)

			gen := oracle.NewGen(seed, tables)
			for q := 0; q < 12; q++ {
				out := fmt.Sprintf("out/q%d", q)
				src := gen.Script(out)
				want, err := oracle.Run(src, tables)
				if err != nil {
					t.Fatalf("oracle q%d: %v\n%s", q, err, src)
				}
				resL, err := local.Execute(src)
				if err != nil {
					t.Fatalf("in-process q%d: %v\n%s", q, err, src)
				}
				resF, err := fleetSys.Execute(src)
				if err != nil {
					t.Fatalf("fleet q%d: %v\n%s", q, err, src)
				}
				if len(resL.Rewrites) != len(resF.Rewrites) {
					t.Fatalf("q%d rewrite decisions diverged: in-process %d, fleet %d",
						q, len(resL.Rewrites), len(resF.Rewrites))
				}
				for _, side := range []struct {
					name string
					sys  *restore.System
					res  *restore.Result
				}{{"in-process", local, resL}, {"fleet", fleetSys, resF}} {
					rows, err := side.sys.ReadOutput(side.res, out)
					if err != nil {
						t.Fatal(err)
					}
					if err := oracle.Diff(want[out], rows); err != nil {
						t.Fatalf("q%d %s rows: %v\n%s", q, side.name, err, src)
					}
				}
			}
			if want, got := exportState(t, local), exportState(t, fleetSys); !bytes.Equal(want, got) {
				t.Fatalf("final state diverged: in-process %d bytes, fleet %d bytes", len(want), len(got))
			}
			st := coord.Stats()
			if st.MapTasksDispatched == 0 {
				t.Fatal("fleet system dispatched no map tasks — backend not wired")
			}
			if st.TasksRetried != 0 || st.WorkerFailures != 0 {
				t.Fatalf("fault-free run recorded failures: %+v", st)
			}
		})
	}
}

// TestFleetWorkerFaultBeforeMap: a worker failing a map dispatch (HTTP 500)
// while staying alive forces a retry that succeeds; the query completes with
// rows identical to the in-process run.
func TestFleetWorkerFaultBeforeMap(t *testing.T) {
	tf := startFleet(t, 2, WorkerConfig{}, nil)
	local := restore.New()
	fleetSys, coord := newFleetSystem(t, tf.addrs)
	loadFleetTables(t, local, 7)
	loadFleetTables(t, fleetSys, 7)

	tf.workers[0].failNextMap.Store(1)
	want := runAndRead(t, local, groupQuery, "out/fault")
	got := runAndRead(t, fleetSys, groupQuery, "out/fault")
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Fatalf("rows diverged after injected map fault: %d vs %d rows", len(want), len(got))
	}
	if st := coord.Stats(); st.TasksRetried == 0 {
		t.Fatalf("injected map fault not retried: %+v", st)
	}
}

// TestFleetWorkerCrashMidMap: a worker dying outright (server closed) during
// the map phase is declared dead and its tasks re-dispatched to the survivor.
func TestFleetWorkerCrashMidMap(t *testing.T) {
	tf := startFleet(t, 2, WorkerConfig{}, nil)
	local := restore.New()
	fleetSys, coord := newFleetSystem(t, tf.addrs)
	loadFleetTables(t, local, 11)
	loadFleetTables(t, fleetSys, 11)

	// Close before the query: every dispatch to it is a transport error, so
	// the first map task lands on a dead worker mid-stream.
	tf.servers[1].Close()
	want := runAndRead(t, local, groupQuery, "out/fault")
	got := runAndRead(t, fleetSys, groupQuery, "out/fault")
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Fatalf("rows diverged after worker crash: %d vs %d rows", len(want), len(got))
	}
	st := coord.Stats()
	if st.WorkerFailures == 0 {
		t.Fatalf("crashed worker never declared dead: %+v", st)
	}
	if st.TasksRetried == 0 {
		t.Fatalf("no task re-dispatched off the dead worker: %+v", st)
	}
}

// TestFleetWorkerCrashAfterMap: a worker killed after the map phase takes its
// retained shuffle runs with it; the reduce phase must detect the missing
// holder, recover the lost map tasks, and still produce identical rows.
func TestFleetWorkerCrashAfterMap(t *testing.T) {
	tf := startFleet(t, 2, WorkerConfig{}, nil)
	local := restore.New()
	fleetSys, coord := newFleetSystem(t, tf.addrs)
	loadFleetTables(t, local, 13)
	loadFleetTables(t, fleetSys, 13)

	var once sync.Once
	coord.Engine().PhaseHook = func(jobID, phase string) {
		if phase == "map-done" {
			once.Do(func() { tf.servers[0].Close() })
		}
	}
	want := runAndRead(t, local, groupQuery, "out/fault")
	got := runAndRead(t, fleetSys, groupQuery, "out/fault")
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Fatalf("rows diverged after post-map crash: %d vs %d rows", len(want), len(got))
	}
	st := coord.Stats()
	if st.WorkerFailures == 0 {
		t.Fatalf("post-map crash never declared dead: %+v", st)
	}
	if st.TasksRetried+st.TasksRecovered == 0 {
		t.Fatalf("lost shuffle runs never re-materialized: %+v", st)
	}
}

// TestFleetTornShufflePull: a truncated shuffle payload must be detected by
// the run decoder (record count mismatch), attributed to the holding peer,
// and retried — never silently folded into the merge.
func TestFleetTornShufflePull(t *testing.T) {
	tf := startFleet(t, 2, WorkerConfig{}, nil)
	local := restore.New()
	fleetSys, coord := newFleetSystem(t, tf.addrs)
	loadFleetTables(t, local, 17)
	loadFleetTables(t, fleetSys, 17)

	tf.workers[0].tornNextShuffle.Store(1)
	tf.workers[1].tornNextShuffle.Store(1)
	want := runAndRead(t, local, groupQuery, "out/fault")
	got := runAndRead(t, fleetSys, groupQuery, "out/fault")
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Fatalf("rows diverged after torn shuffle pull: %d vs %d rows", len(want), len(got))
	}
	if st := coord.Stats(); st.TasksRetried == 0 {
		t.Fatalf("torn pull never retried: %+v", st)
	}
}

// TestFleetDuplicateCompletionIdempotent: re-dispatching an already-completed
// map task (what recovery does when two reduce partitions race) must be
// idempotent at the worker protocol level — the duplicate returns a
// byte-identical response, the retained run set is overwritten in place, and
// a reduce over the (twice-completed) runs still succeeds.
func TestFleetDuplicateCompletionIdempotent(t *testing.T) {
	tf := startFleet(t, 1, WorkerConfig{}, nil)
	sys := restore.New()
	loadFleetTables(t, sys, 19)

	script, err := piglatin.Parse(groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := logical.Build(script)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := mrcompile.Compile(lp, "tmp/dup")
	if err != nil {
		t.Fatal(err)
	}
	job := wf.Jobs[0]
	if job.Blocking() == nil {
		t.Fatal("expected a blocking job")
	}
	env, err := mapred.EncodeJob(job)
	if err != nil {
		t.Fatal(err)
	}
	var loadID int
	for _, op := range job.Plan.Ops() {
		if op.Kind == physical.OpLoad {
			loadID = op.ID
			break
		}
	}
	input, err := sys.FS().ReadPartitionRaw("data/facts", 0)
	if err != nil {
		t.Fatal(err)
	}
	req := mapRequest{
		Key:         "dup-test",
		Job:         env,
		ReduceParts: 4,
		Combine:     true,
		Spec:        mapred.MapTaskSpec{TaskIdx: 0, LoadID: loadID, Partition: 0},
		Input:       input,
	}
	post := func(path string, in any) []byte {
		t.Helper()
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(tf.addrs[0]+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", path, resp.Status, data)
		}
		return data
	}

	first := post("/v1/map", &req)
	w := tf.workers[0]
	w.mu.Lock()
	retained := len(w.jobs["dup-test"].runs)
	w.mu.Unlock()
	if retained == 0 {
		t.Fatal("map task retained no runs")
	}

	second := post("/v1/map", &req)
	if !bytes.Equal(first, second) {
		t.Fatalf("duplicate completion responses differ:\n%s\n%s", first, second)
	}
	w.mu.Lock()
	after := len(w.jobs["dup-test"].runs)
	w.mu.Unlock()
	if after != retained {
		t.Fatalf("duplicate completion grew retention: %d -> %d runs", retained, after)
	}

	// The twice-completed runs still serve a reduce.
	var mresp mapResponse
	if err := json.Unmarshal(second, &mresp); err != nil {
		t.Fatal(err)
	}
	for i := range mresp.Runs {
		mresp.Runs[i].Addr = tf.addrs[0]
	}
	var refs []mapred.RunRef
	for _, r := range mresp.Runs {
		if r.Part == mresp.Runs[0].Part {
			refs = append(refs, r)
		}
	}
	post("/v1/reduce", &reduceRequest{
		Key: "dup-test", Job: env, ReduceParts: 4, Combine: true,
		Part: mresp.Runs[0].Part, Refs: refs,
	})
}

// TestFleetKillWorkerRecoversFromRepository is the end-to-end recovery proof:
// with 3 workers and a worker killed after the map phase, every query still
// completes, and at least one lost map task is rebuilt from stored sub-job
// outputs (TasksRecovered) — ReStore's reuse-as-recovery — rather than
// re-executed from scratch.
func TestFleetKillWorkerRecoversFromRepository(t *testing.T) {
	tf := startFleet(t, 3, WorkerConfig{}, nil)
	local := restore.New()
	fleetSys, coord := newFleetSystem(t, tf.addrs)
	tables := loadFleetTables(t, local, 23)
	loadFleetTables(t, fleetSys, 23)

	var once sync.Once
	coord.Engine().PhaseHook = func(jobID, phase string) {
		if phase == "map-done" {
			// Map-side sub-job stores are committed by now; killing a worker
			// forces the reduce phase to recover its lost runs, and the
			// stored partitions let it replay instead of re-execute.
			once.Do(func() { tf.servers[0].Close() })
		}
	}

	queries := []string{groupQuery}
	gen := oracle.NewGen(23, tables)
	for q := 0; q < 5; q++ {
		queries = append(queries, gen.Script(fmt.Sprintf("out/q%d", q)))
	}
	for qi, src := range queries {
		out := "out/fault"
		if qi > 0 {
			out = fmt.Sprintf("out/q%d", qi-1)
		}
		want := runAndRead(t, local, src, out)
		got := runAndRead(t, fleetSys, src, out)
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Fatalf("q%d rows diverged after worker kill: %d vs %d rows\n%s",
				qi, len(want), len(got), src)
		}
	}
	st := coord.Stats()
	if st.WorkerFailures == 0 {
		t.Fatalf("killed worker never declared dead: %+v", st)
	}
	if st.TasksRecovered == 0 {
		t.Fatalf("no lost task recovered from stored sub-job outputs (reuse as recovery): %+v", st)
	}
	alive := 0
	for _, w := range st.Workers {
		if w.Alive {
			alive++
		}
	}
	if alive != 2 {
		t.Fatalf("worker liveness wrong after kill: %+v", st.Workers)
	}
}

// TestFleetSpreadsTasksAcrossWorkers pins what adding workers buys, as
// counts: four concurrent clients stream distinct grouped aggregates through
// three one-slot workers, every worker is handed map tasks and reduce
// partitions (counted at its own HTTP handler), and the coordinator
// dispatches exactly the planned map tasks — none lost, none retried.
func TestFleetSpreadsTasksAcrossWorkers(t *testing.T) {
	const workers, clients, queries, parts = 3, 4, 4, 3
	var maps, reduces [workers]atomic.Int64
	tf := startFleet(t, workers, WorkerConfig{Slots: 1}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/map":
				maps[i].Add(1)
			case "/v1/reduce":
				reduces[i].Add(1)
			}
			h.ServeHTTP(rw, r)
		})
	})
	sys, coord := newFleetSystem(t, tf.addrs)
	for cl := 0; cl < clients; cl++ {
		lines := make([]string, 600)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", (i*13+cl)%40, (i*7+cl)%100)
		}
		if err := sys.LoadTSV(fmt.Sprintf("c%d/in", cl), "k:int, v:int", lines, parts); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Distinct inputs, filter constants and outputs: nothing is
			// reused, so every query ships its full task set.
			for q := 0; q < queries; q++ {
				src := fmt.Sprintf(`A = load 'c%d/in' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B), SUM(B.v);
store D into 'c%d/out/q%d';`, cl, q*17, cl, q)
				if _, err := sys.Execute(src); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	st := coord.Stats()
	var mapReqs, reduceReqs int64
	for i := range maps {
		m, r := maps[i].Load(), reduces[i].Load()
		if m == 0 || r == 0 {
			t.Errorf("worker %d served %d map and %d reduce requests, want each >= 1", i, m, r)
		}
		mapReqs += m
		reduceReqs += r
	}
	if planned := int64(clients * queries * parts); st.MapTasksDispatched != planned || mapReqs != planned {
		t.Errorf("map tasks: %d dispatched, %d served, %d planned", st.MapTasksDispatched, mapReqs, planned)
	}
	if st.ReduceTasksDispatched != reduceReqs || st.TasksRetried != 0 || st.WorkerFailures != 0 {
		t.Errorf("reduce requests served = %d, stats = %+v", reduceReqs, st)
	}
}

// BenchmarkFleetGroupQuery drives the canonical blocking query through a
// 2-worker fleet — the bench-fleet-smoke gate.
func BenchmarkFleetGroupQuery(b *testing.B) {
	tf := startFleet(b, 2, WorkerConfig{}, nil)
	sys := restore.New()
	coord := NewCoordinator(sys.Engine(), Config{FS: sys.FS(), Workers: tf.addrs})
	sys.SetBackend(coord)
	rng := rand.New(rand.NewSource(1))
	var facts []string
	for i := 0; i < 500; i++ {
		facts = append(facts, fmt.Sprintf("k%02d\t%d\t%d\tv%d\t%d",
			rng.Intn(20), rng.Intn(100), rng.Intn(10), rng.Intn(5), rng.Intn(40)))
	}
	if err := sys.LoadTSV("data/facts", "k:chararray, a:int, b:int, c:chararray, d:double", facts, 4); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := strings.Replace(groupQuery, "out/fault", fmt.Sprintf("out/b%d", i), 1)
		if _, err := sys.Execute(src); err != nil {
			b.Fatal(err)
		}
	}
}
