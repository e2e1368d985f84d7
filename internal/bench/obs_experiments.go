package bench

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	restore "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// ServerObsOverhead measures what end-to-end telemetry costs on the serving
// path. The same disjoint workload (cluster-latency emulation, so queries
// look like real deployments rather than microsecond stubs) runs through two
// daemons: one fully instrumented (histograms, stage traces, slow ring,
// sliding rate window) and one built with obs.Disabled, where every record
// call is a single predictable branch.
//
// The workload's wall-clock is dominated by emulated cluster sleeps, so any
// single round carries scheduling jitter far larger than the cost being
// measured. The comparison therefore runs back-to-back pairs (alternating
// which mode goes first) and reports the median of the per-pair wall-clock
// ratios: pairing cancels slow machine drift, the median discards jitter
// outliers. The headline note is that median relative overhead; the
// observability PR's budget for it is <3%.
func ServerObsOverhead(cfg Config) (*Table, error) {
	table := &Table{
		ID:      "server-obs",
		Title:   "telemetry overhead: instrumented daemon vs obs.Disabled (disjoint workload)",
		Columns: []string{"mode", "reps", "clients", "workers", "submitted", "wall_ms_min", "qps"},
	}
	const (
		clients = 8
		workers = 8
	)
	reps := cfg.ObsPairs
	if reps < 2 {
		reps = 2
	}
	minWall := [2]time.Duration{1 << 62, 1 << 62}
	var submitted [2]int64
	ratios := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		var wall [2]time.Duration
		for i := 0; i < 2; i++ {
			mode := (r + i) % 2
			w, sub, err := obsRound(mode == 1, clients, workers)
			if err != nil {
				return nil, err
			}
			wall[mode] = w
			if w < minWall[mode] {
				minWall[mode] = w
			}
			submitted[mode] = sub
		}
		ratios = append(ratios, float64(wall[0])/float64(wall[1]))
	}
	for mode, name := range []string{"instrumented", "disabled"} {
		table.AddRow(
			name,
			fmt.Sprintf("%d", reps),
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%d", submitted[mode]),
			fmt.Sprintf("%d", minWall[mode].Milliseconds()),
			fmt.Sprintf("%.1f", float64(submitted[mode])/minWall[mode].Seconds()),
		)
	}
	sort.Float64s(ratios)
	median := (ratios[(len(ratios)-1)/2] + ratios[len(ratios)/2]) / 2
	table.AddNote("instrumented wall-clock overhead %.2f%% over obs.Disabled (median of %d back-to-back pair ratios; budget <3%%); cluster-latency emulation %g",
		100*(median-1), reps, disjointLatencyScale)
	table.AddNote("instrumented = per-stage histograms + traces + slow ring + rate window on every query; disabled = one branch per record call")
	return table, nil
}

// obsRound boots a daemon over a fresh disjoint-workload system — with
// telemetry either fully on or hard-disabled — drives the workload, and
// returns the wall-clock and submission count.
func obsRound(disabled bool, clients, workers int) (wall time.Duration, submitted int64, err error) {
	sys := restore.New(restore.WithJobLatency(disjointLatencyScale))
	const rows = 3000
	const queriesPerClient = 10
	for cl := 0; cl < clients; cl++ {
		lines := make([]string, rows)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", (i*13+cl)%50, (i*7+cl)%100)
		}
		if err := sys.LoadTSV(fmt.Sprintf("in/c%d", cl), "k:int, v:int", lines, 4); err != nil {
			return 0, 0, err
		}
	}
	scfg := server.Config{System: sys, Workers: workers}
	if disabled {
		scfg.Obs = obs.Disabled
	}
	srv, err := server.New(scfg)
	if err != nil {
		return 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
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
	// Collect garbage carried over from prior rounds (and, in a full
	// restore-bench run, prior experiments) before timing: a GC pause from
	// someone else's allocations landing inside one mode's round is the
	// largest single source of paired-comparison skew.
	runtime.GC()
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
	wall = time.Since(start)
	close(errs)
	for err := range errs {
		return 0, 0, fmt.Errorf("bench: obs round (disabled=%v): %w", disabled, err)
	}
	m, err := server.NewClient(base).Metrics()
	if err != nil {
		return 0, 0, err
	}
	return wall, m.QueriesSubmitted, nil
}
