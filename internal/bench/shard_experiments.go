package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	restore "repro"
	"repro/internal/server"
)

// shardOpLatency emulates the per-mutation metadata RPC of a remote DFS
// namenode for the server-shard experiment: every namespace mutation
// (create, schema, partition commit, delete) sleeps this long while holding
// its shard's write lock. The emulation reproduces the deployment regime
// where namespace mutations are wall-clock-bound (a round trip to the
// metadata service), not CPU-bound — which is exactly the serialization the
// sharded core removes, and makes the removal measurable on any machine,
// single-core included: under one shard the sleeps serialize behind one
// lock, under N shards disjoint clients overlap them.
const shardOpLatency = 2 * time.Millisecond

// shardQueriesPerClient is how many distinct queries each client submits in
// a server-shard round. Distinct filter constants defeat single-flight and
// repository reuse, so every submission pays the full mutation path.
const shardQueriesPerClient = 6

// ShardScaling benchmarks the sharded execution core: the same all-disjoint
// workload (every client owns a private top-level namespace, so every
// client maps to its own shard root) runs against daemons built with 1, 2,
// 4, and 8 core shards. With one shard every namespace mutation serializes
// behind a single write lock — the emulated metadata RPC latency adds up
// across all clients. With N shards the per-client mutation streams hold
// independent locks and the same waits overlap. The speedup column is the
// headline: wall-clock of the single-domain core over this row's.
//
// The workload is deliberately reuse-free (distinct plans, disjoint paths)
// so the table measures lock-domain scaling and nothing else; the matcher,
// single-flight, and the scheduler behave identically across rows.
func ShardScaling(cfg Config) (*Table, error) {
	table := &Table{
		ID:      "server-shard",
		Title:   "sharded execution core: all-disjoint throughput vs shard count",
		Columns: []string{"shards", "clients", "workers", "submitted", "executed", "wall_ms", "qps", "speedup"},
	}
	const clients = 8
	var baseWall int64
	for _, shards := range []int{1, 2, 4, 8} {
		wall, err := serverShardRound(shards, clients, &baseWall, table)
		if err != nil {
			return nil, err
		}
		if shards == 1 {
			baseWall = wall
		}
	}
	table.AddNote("same workload, same scheduler, same matcher on every row; only the number of independently locked core shards changes")
	table.AddNote("op-latency emulation %v per namespace mutation (held under the owning shard's write lock), reproducing a metadata-RPC-bound deployment", shardOpLatency)
	return table, nil
}

// serverShardRound boots a daemon over a core built with the given shard
// count, seeds one private dataset per client under a per-client top-level
// root (c0/in, c1/in, ... — the first path segment is the shard key root,
// so distinct clients land on distinct shards whenever shards allow), and
// drives the all-disjoint query stream. baseWall, when non-zero, is the
// single-shard wall time used for the speedup column.
func serverShardRound(shards, clients int, baseWall *int64, table *Table) (wallMS int64, err error) {
	sys := restore.New(restore.WithShards(shards))
	const rows = 2000
	for cl := 0; cl < clients; cl++ {
		lines := make([]string, rows)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", (i*13+cl)%50, (i*7+cl)%100)
		}
		if err := sys.LoadTSV(fmt.Sprintf("c%d/in", cl), "k:int, v:int", lines, 4); err != nil {
			return 0, err
		}
	}
	// Latency emulation starts after seeding: loading the datasets is setup,
	// not the measured workload.
	sys.FS().SetOpLatency(shardOpLatency)
	defer sys.FS().SetOpLatency(0)

	srv, err := server.New(server.Config{System: sys, Workers: clients})
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
			for q := 0; q < shardQueriesPerClient; q++ {
				src := fmt.Sprintf(`A = load 'c%d/in' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B), SUM(B.v);
store D into 'c%d/out/q%d';`, cl, q*11, cl, q)
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
		return 0, fmt.Errorf("bench: shard round (shards=%d): %w", shards, err)
	}

	m, err := server.NewClient(base).Metrics()
	if err != nil {
		return 0, err
	}
	speedup := "1.00x"
	if *baseWall > 0 && wall.Milliseconds() > 0 {
		speedup = fmt.Sprintf("%.2fx", float64(*baseWall)/float64(wall.Milliseconds()))
	}
	table.AddRow(
		fmt.Sprintf("%d", shards),
		fmt.Sprintf("%d", clients),
		fmt.Sprintf("%d", clients),
		fmt.Sprintf("%d", m.QueriesSubmitted),
		fmt.Sprintf("%d", m.QueriesExecuted),
		fmt.Sprintf("%d", wall.Milliseconds()),
		fmt.Sprintf("%.1f", float64(m.QueriesSubmitted)/wall.Seconds()),
		speedup,
	)
	return wall.Milliseconds(), nil
}
