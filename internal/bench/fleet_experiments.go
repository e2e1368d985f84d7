package bench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	restore "repro"
	"repro/internal/fleet"
	"repro/internal/server"
)

// fleetTaskDelay emulates per-task compute on a fleet worker for the
// server-fleet experiment: every map task and reduce partition sleeps this
// long while holding one of the worker's execution slots. With Slots=1 per
// worker this reproduces the remote-cluster regime where fleet size, not
// coordinator CPU, bounds throughput — which is exactly what adding workers
// buys, and makes the scaling measurable on any machine, single-core
// included: one worker serializes every task of every concurrent query
// behind one slot, N workers overlap N of them.
const fleetTaskDelay = 3 * time.Millisecond

// fleetQueriesPerClient is how many distinct queries each client submits in
// a server-fleet round. Distinct filter constants defeat single-flight and
// repository reuse, so every submission ships its full task set to the fleet.
const fleetQueriesPerClient = 4

// FleetScaling benchmarks the multi-process execution backend: the same
// all-distinct workload runs against daemons whose engines dispatch every
// map task and reduce partition to a fleet of 1, 2, and 3 HTTP workers
// (each a one-slot machine with emulated per-task compute). With one worker
// every task of every concurrent query serializes behind its single slot;
// with N workers the coordinator's round-robin overlaps N tasks. The
// speedup column is the headline: wall-clock of the one-worker fleet over
// this row's.
//
// The workload is deliberately reuse-free (distinct plans, disjoint output
// paths) so the table measures task-dispatch scaling and nothing else; the
// coordinator, codec, and shuffle path behave identically across rows.
func FleetScaling(cfg Config) (*Table, error) {
	table := &Table{
		ID:      "server-fleet",
		Title:   "fleet execution backend: wall-clock vs worker count",
		Columns: []string{"fleet", "clients", "submitted", "executed", "map_tasks", "shuffle_mb", "wall_ms", "qps", "speedup"},
	}
	const clients = 4
	var baseWall int64
	for _, workers := range []int{1, 2, 3} {
		wall, err := serverFleetRound(workers, clients, &baseWall, table)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			baseWall = wall
		}
	}
	table.AddNote("same workload, same coordinator, same wire codec on every row; only the number of one-slot worker processes changes")
	table.AddNote("per-task compute emulation %v on each worker slot, reproducing a cluster-bound deployment where fleet size caps concurrent tasks", fleetTaskDelay)
	return table, nil
}

// serverFleetRound boots `workers` one-slot fleet workers on loopback HTTP
// listeners, wires a daemon's engine to dispatch through a fleet coordinator
// over them, and drives the all-distinct query stream from concurrent
// clients. baseWall, when non-zero, is the one-worker wall time used for the
// speedup column.
func serverFleetRound(workers, clients int, baseWall *int64, table *Table) (wallMS int64, err error) {
	sys := restore.New()
	const rows = 600
	for cl := 0; cl < clients; cl++ {
		lines := make([]string, rows)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", (i*13+cl)%40, (i*7+cl)%100)
		}
		if err := sys.LoadTSV(fmt.Sprintf("c%d/in", cl), "k:int, v:int", lines, 3); err != nil {
			return 0, err
		}
	}

	addrs := make([]string, workers)
	stops := make([]func(), 0, workers)
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < workers; i++ {
		w := fleet.NewWorker(fleet.WorkerConfig{Slots: 1, TaskDelay: fleetTaskDelay})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		addrs[i] = "http://" + ln.Addr().String()
		w.SetAddr(addrs[i])
		hs := &http.Server{Handler: w.Handler()}
		serveErr := make(chan error, 1)
		go func() { serveErr <- hs.Serve(ln) }()
		stops = append(stops, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx)
			<-serveErr
		})
	}

	coord := fleet.NewCoordinator(sys.Engine(), fleet.Config{
		FS:      sys.FS(),
		Workers: addrs,
		RepoCheck: func(path string) bool {
			return sys.Repository().ReferencesPath(path) || strings.HasPrefix(path, "restore/")
		},
	})
	sys.SetBackend(coord)

	srv, err := server.New(server.Config{System: sys, Workers: clients, Fleet: coord})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
		<-serveErr
	}()

	base := "http://" + ln.Addr().String()
	start := time.Now()
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := server.NewClient(base)
			for q := 0; q < fleetQueriesPerClient; q++ {
				src := fmt.Sprintf(`A = load 'c%d/in' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B), SUM(B.v);
store D into 'c%d/out/q%d';`, cl, q*17, cl, q)
				if _, err := c.Submit(src, false); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, fmt.Errorf("bench: fleet round (workers=%d): %w", workers, err)
	}

	m, err := server.NewClient(base).Metrics()
	if err != nil {
		return 0, err
	}
	fs := coord.Stats()
	speedup := "1.00x"
	if *baseWall > 0 && wall.Milliseconds() > 0 {
		speedup = fmt.Sprintf("%.2fx", float64(*baseWall)/float64(wall.Milliseconds()))
	}
	table.AddRow(
		fmt.Sprintf("%d", workers),
		fmt.Sprintf("%d", clients),
		fmt.Sprintf("%d", m.QueriesSubmitted),
		fmt.Sprintf("%d", m.QueriesExecuted),
		fmt.Sprintf("%d", fs.MapTasksDispatched),
		fmt.Sprintf("%.2f", float64(fs.ShuffleBytesPulled)/(1<<20)),
		fmt.Sprintf("%d", wall.Milliseconds()),
		fmt.Sprintf("%.1f", float64(m.QueriesSubmitted)/wall.Seconds()),
		speedup,
	)
	return wall.Milliseconds(), nil
}
