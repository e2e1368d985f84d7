package bench

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	restore "repro"
	"repro/internal/pigmix"
	"repro/internal/server"
)

// ServerThroughput benchmarks restored in server mode, two ways:
//
//   - "variants": for each client count, a fresh daemon over the small
//     PigMix instance serves the §7.1 variant stream submitted by N
//     concurrent clients (every client submits every query, so identical
//     in-flight submissions pile up on single-flight and the repository).
//   - "disjoint": N clients each drive their own dataset and output
//     namespace — an all-disjoint workload — first through the
//     single-worker configuration (workers=1), then through a worker
//     pool the size of the client count. The speedup between those two
//     rows is the headline number of lease-based admission: path-disjoint
//     traffic does not serialize.
//
// The table reports wall-clock throughput, single-flight dedup, and the
// repository hit rate under traffic.
func ServerThroughput(cfg Config) (*Table, error) {
	table := &Table{
		ID:      "server",
		Title:   "restored server-mode throughput (variant stream + disjoint FIFO-vs-concurrent)",
		Columns: []string{"mode", "clients", "workers", "submitted", "executed", "deduped", "hit-rate", "wall_ms", "qps"},
	}
	for _, clients := range []int{1, 2, 4, 8} {
		if err := serverRound(cfg, clients, table); err != nil {
			return nil, err
		}
	}

	// Pool sized to the client count, not GOMAXPROCS, so recorded baselines
	// are comparable across machines: with cluster-latency emulation on
	// (see serverDisjointRound) workers spend most of their time waiting on
	// the emulated cluster, so even a single-core machine overlaps them; on
	// multicore the same pool also overlaps the CPU work.
	const disjointClients = 8
	workers := disjointClients
	fifoWall, err := serverDisjointRound(disjointClients, 1, table)
	if err != nil {
		return nil, err
	}
	concWall, err := serverDisjointRound(disjointClients, workers, table)
	if err != nil {
		return nil, err
	}
	if concWall > 0 {
		table.AddNote("disjoint workload: concurrent scheduler speedup %.2fx over FIFO (workers=%d, cluster-latency emulation %g)",
			float64(fifoWall)/float64(concWall), workers, disjointLatencyScale)
	}
	table.AddNote("executed < submitted is single-flight dedup; hit-rate is the repository reuse rate over executed queries")
	return table, nil
}

// disjointLatencyScale converts simulated job time into emulated remote
// cluster wall-clock wait for the disjoint rounds: ~114 s of simulated
// time per query becomes ~28 ms of real wait. This reproduces the paper's
// deployment regime (the daemon orchestrates a cluster that does the heavy
// lifting) so the FIFO-vs-concurrent comparison measures scheduling, not
// the local CPU count.
const disjointLatencyScale = 2.5e-4

// serverDisjointRound runs the all-disjoint workload: each client owns a
// private dataset and output namespace, and every query carries a distinct
// plan (different filter constants), so neither single-flight nor the
// repository can collapse the work — throughput is pure scheduling.
func serverDisjointRound(clients, workers int, table *Table) (wallMS int64, err error) {
	sys := restore.New(restore.WithJobLatency(disjointLatencyScale))
	const rows = 3000
	const queriesPerClient = 5
	for cl := 0; cl < clients; cl++ {
		lines := make([]string, rows)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", (i*13+cl)%50, (i*7+cl)%100)
		}
		if err := sys.LoadTSV(fmt.Sprintf("in/c%d", cl), "k:int, v:int", lines, 4); err != nil {
			return 0, err
		}
	}
	srv, err := server.New(server.Config{System: sys, Workers: workers})
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
			for q := 0; q < queriesPerClient; q++ {
				src := fmt.Sprintf(`A = load 'in/c%d' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B), SUM(B.v);
store D into 'out/c%d/q%d';`, cl, q*11, cl, q)
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
		return 0, fmt.Errorf("bench: disjoint round (workers=%d): %w", workers, err)
	}

	m, err := server.NewClient(base).Metrics()
	if err != nil {
		return 0, err
	}
	mode := "disjoint-fifo"
	if workers > 1 {
		mode = "disjoint-conc"
	}
	table.AddRow(
		mode,
		fmt.Sprintf("%d", clients),
		fmt.Sprintf("%d", workers),
		fmt.Sprintf("%d", m.QueriesSubmitted),
		fmt.Sprintf("%d", m.QueriesExecuted),
		fmt.Sprintf("%d", m.QueriesDeduped),
		fmt.Sprintf("%.0f%%", 100*m.Reuse.HitRate),
		fmt.Sprintf("%d", wall.Milliseconds()),
		fmt.Sprintf("%.1f", float64(m.QueriesSubmitted)/wall.Seconds()),
	)
	return wall.Milliseconds(), nil
}

// ServerCheckpointCost measures what durability costs per interval as the
// DFS grows. Each round adds a fixed mutation volume (one new dataset +
// two queries over it) to a daemon with a durable state directory, then
// reads two counters from /v1/metrics:
//
//   - wal_kb: WAL bytes appended during the round — the routine
//     checkpoint's cost, O(mutations in the interval);
//   - snap_kb: snapshot bytes written by forcing a compaction after the
//     round — the pre-WAL full-checkpoint cost, O(total DFS size).
//
// The wal/snap column collapsing toward zero while dfs_kb grows is the
// incremental-persistence headline. A final stall probe runs long
// (cluster-latency-emulated) queries and times a mid-stream compaction:
// that drain stall is what every periodic checkpoint used to pay, and
// routine WAL durability now avoids.
func ServerCheckpointCost(cfg Config) (*Table, error) {
	table := &Table{
		ID:      "server-ckpt",
		Title:   "checkpoint cost per interval: WAL (O(mutations)) vs snapshot (O(DFS))",
		Columns: []string{"round", "dfs_kb", "wal_kb", "snap_kb", "wal/snap"},
	}
	stateDir, err := os.MkdirTemp("", "restore-bench-ckpt-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)

	srv, err := server.New(server.Config{StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
		<-serveErr
	}()

	c := server.NewClient("http://" + ln.Addr().String())
	const rounds = 6
	const rowsPerRound = 400
	var lastWAL, lastSnap, firstWAL, firstSnap int64
	for r := 0; r < rounds; r++ {
		m0, err := c.Metrics()
		if err != nil {
			return nil, err
		}
		lines := make([]string, rowsPerRound)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", (i*13+r)%50, (i*7+r)%100)
		}
		if _, err := c.Upload(fmt.Sprintf("in/ck%d", r), "k:int, v:int", 2, lines); err != nil {
			return nil, err
		}
		for q := 0; q < 2; q++ {
			src := fmt.Sprintf(`A = load 'in/ck%d' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B), SUM(B.v);
store D into 'out/ck%d/q%d';`, r, q*17, r, q)
			if _, err := c.Submit(src, false); err != nil {
				return nil, err
			}
		}
		m1, err := c.Metrics()
		if err != nil {
			return nil, err
		}
		// Force a compaction so snap bytes reflect "a full checkpoint right
		// now"; the WAL delta above is what routine durability wrote instead.
		if err := c.Checkpoint(); err != nil {
			return nil, err
		}
		m2, err := c.Metrics()
		if err != nil {
			return nil, err
		}
		walBytes := m1.WAL.Bytes - m0.WAL.Bytes
		snapBytes := m2.WAL.CompactBytes - m1.WAL.CompactBytes
		var dfsBytes int64
		ds, err := c.Datasets("")
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			dfsBytes += d.Bytes
		}
		lastWAL, lastSnap = walBytes, snapBytes
		if r == 0 {
			firstWAL, firstSnap = walBytes, snapBytes
		}
		ratio := 0.0
		if snapBytes > 0 {
			ratio = float64(walBytes) / float64(snapBytes)
		}
		table.AddRow(
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%.1f", float64(dfsBytes)/1024),
			fmt.Sprintf("%.1f", float64(walBytes)/1024),
			fmt.Sprintf("%.1f", float64(snapBytes)/1024),
			fmt.Sprintf("%.3f", ratio),
		)
	}
	if firstWAL > 0 && firstSnap > 0 {
		table.AddNote("growth over %d rounds: wal %.2fx (fixed per-interval mutations), snapshot %.2fx (tracks total DFS size)",
			rounds, float64(lastWAL)/float64(firstWAL), float64(lastSnap)/float64(firstSnap))
	}

	stall, err := checkpointStallProbe()
	if err != nil {
		return nil, err
	}
	table.AddNote("drain-stall probe under in-flight cluster-latency queries: forced compaction stalled %d ms; routine WAL durability stalls 0 ms (no drain lease)", stall.Milliseconds())
	return table, nil
}

// checkpointStallProbe boots a daemon with remote-cluster latency
// emulation, saturates it with in-flight disjoint queries, and times a
// compaction submitted mid-stream: the universal task must wait for every
// execution to finish, which is exactly the stall the old
// full-snapshot-per-interval persister paid on every save.
func checkpointStallProbe() (time.Duration, error) {
	stateDir, err := os.MkdirTemp("", "restore-bench-stall-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(stateDir)
	sys := restore.New(restore.WithJobLatency(disjointLatencyScale * 4))
	const clients = 4
	for cl := 0; cl < clients; cl++ {
		lines := make([]string, 2000)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", (i*13+cl)%50, (i*7+cl)%100)
		}
		if err := sys.LoadTSV(fmt.Sprintf("in/st%d", cl), "k:int, v:int", lines, 4); err != nil {
			return 0, err
		}
	}
	srv, err := server.New(server.Config{System: sys, StateDir: stateDir, Workers: clients})
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
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := server.NewClient(base)
			for q := 0; q < 3; q++ {
				src := fmt.Sprintf(`A = load 'in/st%d' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, SUM(B.v);
store D into 'out/st%d/q%d';`, cl, q*11, cl, q)
				if _, err := c.Submit(src, false); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Let the workers fill with in-flight executions, then force the drain.
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	err = server.NewClient(base).Checkpoint()
	stall := time.Since(start)
	wg.Wait()
	close(errs)
	if err != nil {
		return 0, err
	}
	for err := range errs {
		return 0, fmt.Errorf("bench: stall probe: %w", err)
	}
	return stall, nil
}

func serverRound(cfg Config, clients int, table *Table) error {
	sys, err := newPigmixSystem(cfg.Small)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{System: sys})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
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
	names := pigmix.VariantNames()
	start := time.Now()
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := server.NewClient(base)
			for _, name := range names {
				src, err := pigmix.Query(name, "out/"+name)
				if err != nil {
					errs <- err
					return
				}
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
		return fmt.Errorf("bench: server round (%d clients): %w", clients, err)
	}

	m, err := server.NewClient(base).Metrics()
	if err != nil {
		return err
	}
	qps := float64(m.QueriesSubmitted) / wall.Seconds()
	table.AddRow(
		"variants",
		fmt.Sprintf("%d", clients),
		fmt.Sprintf("%d", m.Workers),
		fmt.Sprintf("%d", m.QueriesSubmitted),
		fmt.Sprintf("%d", m.QueriesExecuted),
		fmt.Sprintf("%d", m.QueriesDeduped),
		fmt.Sprintf("%.0f%%", 100*m.Reuse.HitRate),
		fmt.Sprintf("%d", wall.Milliseconds()),
		fmt.Sprintf("%.1f", qps),
	)
	return nil
}
