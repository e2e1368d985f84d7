// Command restored runs the ReStore query service: a long-lived daemon that
// accepts Pig Latin workflows over HTTP/JSON from many concurrent clients,
// executes them through the full ReStore stack (matching, rewriting, sub-job
// materialization, repository management), deduplicates identical in-flight
// queries, and keeps its repository and DFS durable across restarts.
//
// Usage:
//
//	restored                                    # serve on :7733, in-memory only
//	restored -addr 127.0.0.1:8080               # pick the listen address
//	restored -state-dir /var/lib/restored       # durable repository + DFS (WAL)
//	restored -wal-sync 20ms                     # fsync cadence (0 = every record)
//	restored -compact-every 10m                 # snapshot + log-truncation cadence
//	restored -pigmix                            # preload the PigMix tables
//	restored -heuristic conservative            # sub-job enumeration heuristic
//	restored -workers 8 -queue-depth 512        # worker slots; bounded queue behind them (overflow = 503)
//	restored -keep-policy size-reduction,time-saving   # §5 rules 1+2
//	restored -eviction-window 100               # §5 rule 3 (workflows)
//	restored -repo-budget-bytes 1073741824      # LRU size budget (1 GiB)
//	restored -output-retention 500 -gc-every 30s  # retire stale out/ files
//	restored -plan-cache 1024                   # prepared-plan cache capacity (0 = off)
//	restored -keep-results                      # serve exact repeats from stored bytes
//	restored -log-level debug -log-format json  # structured ops logging
//	restored -fleet-workers http://127.0.0.1:7741,http://127.0.0.1:7742   # execute on a restore-worker fleet
//	restored -debug-addr 127.0.0.1:6060         # net/http/pprof sidecar
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/query       {"script": "...", "readOutputs": true}   (?trace=1 adds a stage breakdown)
//	POST /v1/explain     {"script": "..."}
//	POST /v1/datasets    {"path": "...", "schema": "a, b:int", "lines": [...]}
//	GET  /v1/datasets?prefix=...
//	GET  /v1/repository
//	GET  /v1/metrics
//	GET  /v1/debug/slow
//	GET  /v1/healthz
//	POST /v1/checkpoint
//	GET  /metrics        (Prometheus text exposition)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers on the default mux, served only at -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	restore "repro"
	"repro/internal/fleet"
	"repro/internal/pigmix"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":7733", "listen address")
		stateDir     = flag.String("state-dir", "", "directory for durable repository+DFS state (empty = in-memory only)")
		walSync      = flag.Duration("wal-sync", server.DefaultWALSync, "WAL fsync cadence — the crash-loss window for acknowledged work (0 = fsync every record; requires -state-dir)")
		compactEvery = flag.Duration("compact-every", 5*time.Minute, "WAL compaction interval: snapshot + log truncation under a drain barrier (requires -state-dir; 0 compacts only at shutdown)")
		queueDepth   = flag.Int("queue-depth", 256, "bounded execution queue; overflow returns 503")
		workers      = flag.Int("workers", 0, "execution worker pool: how many workflows execute, or wait for a conflicting one's lease, at once (0 = GOMAXPROCS, 1 = serialized)")
		shards       = flag.Int("shards", 0, "DFS namespace shard count: the namespace splits into N independently locked shards with one WAL stream each; lease admission and the repository stay one domain (0 = GOMAXPROCS, 1 = one shard)")
		heuristic    = flag.String("heuristic", "aggressive", "sub-job heuristic: off, conservative, aggressive, all")
		preloadPig   = flag.Bool("pigmix", false, "preload the PigMix tables (15GB instance, laptop scale)")
		keepPolicy   = flag.String("keep-policy", "all", "§5 keep rules: 'all', or a comma list of 'size-reduction' (rule 1) and 'time-saving' (rule 2)")
		evictWindow  = flag.Int64("eviction-window", 0, "§5 rule 3: evict repository entries not reused within N workflows (0 = off)")
		repoBudget   = flag.Int64("repo-budget-bytes", 0, "repository size budget: evict least-recently-used entries until stored bytes fit (0 = unbounded)")
		outRetention = flag.Int64("output-retention", 0, "retire user-named out/... files not re-requested within N workflows and referenced by no repository entry (0 = keep forever)")
		gcEvery      = flag.Duration("gc-every", time.Minute, "background growth-management pass cadence: full eviction sweep, size budget, output retention (0 = per-query eviction only)")
		logLevel     = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
		debugAddr    = flag.String("debug-addr", "", "listen address for the net/http/pprof debug server (empty = off)")
		slowRing     = flag.Int("slow-ring", 64, "how many slowest query completions /v1/debug/slow retains")
		planCache    = flag.Int("plan-cache", restore.DefaultPlanCacheSize, "prepared-plan cache capacity: repeat scripts skip parse/plan/compile (0 = off)")
		keepResults  = flag.Bool("keep-results", false, "register user-named query outputs in the repository so exact whole-query repeats are served from stored bytes without re-execution")
		mapPar       = flag.Int("map-parallelism", 0, "concurrent map tasks per job in the engine's map-task pool (0 = GOMAXPROCS)")
		reduceTasks  = flag.Int("reduce-tasks", restore.DefaultReduceTasks, "reduce partitions per job: how many hash partitions each shuffle splits into")
		reducePar    = flag.Int("reduce-parallelism", 0, "concurrent reduce partitions per job in the engine's reduce pool (0 = GOMAXPROCS)")
		fleetAddrs   = flag.String("fleet-workers", "", "comma list of restore-worker base URLs; when set, map tasks and reduce partitions execute on this worker fleet instead of in-process")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "restored:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	h, err := parseHeuristic(*heuristic)
	if err != nil {
		fmt.Fprintln(os.Stderr, "restored:", err)
		os.Exit(2)
	}
	policy, err := parsePolicy(*keepPolicy, *evictWindow, *repoBudget, *outRetention)
	if err != nil {
		fmt.Fprintln(os.Stderr, "restored:", err)
		os.Exit(2)
	}

	// flag 0 means "fsync every record"; Config expresses that as the
	// negative SyncEveryRecord sentinel (Config 0 selects the default).
	cfgWALSync := *walSync
	if cfgWALSync == 0 {
		cfgWALSync = server.SyncEveryRecord
	}

	opts := append([]restore.Option{
		restore.WithHeuristic(h),
		restore.WithPolicy(policy),
		restore.WithPlanCache(*planCache),
		restore.WithRegisterFinalOutputs(*keepResults),
		restore.WithShards(*shards),
	}, engineOptions(*mapPar, *reduceTasks, *reducePar)...)
	sys := restore.New(opts...)
	var coord *fleet.Coordinator
	if *fleetAddrs != "" {
		var addrs []string
		for _, a := range strings.Split(*fleetAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, strings.TrimSuffix(a, "/"))
			}
		}
		if len(addrs) == 0 {
			fmt.Fprintln(os.Stderr, "restored: -fleet-workers lists no worker addresses")
			os.Exit(2)
		}
		coord = fleet.NewCoordinator(sys.Engine(), fleet.Config{
			FS:      sys.FS(),
			Workers: addrs,
			// A stored path may serve reuse-as-recovery when the repository
			// still references it (a registered sub-job output) or it lives
			// under the restore/ prefix a just-executed job materialized.
			RepoCheck: func(path string) bool {
				return sys.Repository().ReferencesPath(path) || strings.HasPrefix(path, "restore/")
			},
		})
		sys.SetBackend(coord)
		logger.Info("fleet execution backend enabled", "workers", len(addrs))
	}
	srv, err := server.New(server.Config{
		System:          sys,
		StateDir:        *stateDir,
		WALSyncInterval: cfgWALSync,
		CompactInterval: *compactEvery,
		QueueDepth:      *queueDepth,
		Workers:         *workers,
		GCInterval:      *gcEvery,
		SlowRingSize:    *slowRing,
		Logger:          logger,
		Fleet:           coord,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "restored:", err)
		os.Exit(1)
	}

	// Preload after New so a loaded checkpoint wins over generation: only
	// generate when the tables are not already there. The cluster scale is
	// not part of the checkpoint, so it must be re-derived on every start —
	// skipping it after a restart would silently reset simulated times to
	// laptop scale.
	if *preloadPig {
		inst := pigmix.Instance15GB()
		if !sys.FS().Exists(pigmix.PathPageViews) {
			if err := pigmix.Generate(sys.FS(), inst.Config); err != nil {
				fmt.Fprintln(os.Stderr, "restored: pigmix:", err)
				os.Exit(1)
			}
			logger.Info("preloaded PigMix instance", "instance", inst.Name)
		}
		if err := sys.SetDataScale(pigmix.PathPageViews, inst.TargetBytes); err != nil {
			fmt.Fprintln(os.Stderr, "restored: pigmix:", err)
			os.Exit(1)
		}
	}

	if *debugAddr != "" {
		// The blank net/http/pprof import registers its handlers on
		// http.DefaultServeMux, which nothing else in the daemon serves —
		// so profiling stays off the query port and can bind to a loopback
		// or otherwise firewalled address.
		go func() {
			logger.Info("debug server listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logger.Error("debug server failed", "error", err.Error())
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "restored:", err)
		os.Exit(1)
	}
	logger.Info("restored listening", "addr", ln.Addr().String(), "repositoryEntries", sys.Repository().Len(), "shards", sys.Shards())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var srvErr error
	select {
	case s := <-sig:
		logger.Info("draining and checkpointing", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "restored: shutdown:", err)
			os.Exit(1)
		}
		srvErr = <-serveErr
	case srvErr = <-serveErr:
	}
	if srvErr != nil && srvErr != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "restored: serve:", srvErr)
		os.Exit(1)
	}
}

// engineOptions translates the engine tuning flags (-map-parallelism,
// -reduce-tasks, -reduce-parallelism) into System options.
func engineOptions(mapPar, reduceTasks, reducePar int) []restore.Option {
	return []restore.Option{
		restore.WithMapParallelism(mapPar),
		restore.WithReducePartitions(reduceTasks),
		restore.WithReduceParallelism(reducePar),
	}
}

// buildLogger assembles the daemon's structured logger from the -log-level
// and -log-format flags. Logs go to stderr (stdout stays clean for tooling).
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
}

// parsePolicy assembles the §5 repository policy from the daemon flags.
// Rule 4 (input-version invalidation) is always on — the daemon must never
// serve stale results; the keep rules, window, budget, and retention are
// opt-in.
func parsePolicy(keep string, window, budget, retention int64) (restore.Policy, error) {
	p := restore.Policy{
		CheckInputVersions: true,
		EvictionWindow:     window,
		RepoBudgetBytes:    budget,
		OutputRetention:    retention,
	}
	switch keep {
	case "", "all":
		p.KeepAll = true
		return p, nil
	}
	for _, rule := range strings.Split(keep, ",") {
		switch strings.TrimSpace(rule) {
		case "size-reduction":
			p.RequireSizeReduction = true
		case "time-saving":
			p.RequireTimeSaving = true
		default:
			return p, fmt.Errorf("unknown keep rule %q (want 'all', 'size-reduction', or 'time-saving')", rule)
		}
	}
	return p, nil
}

func parseHeuristic(name string) (restore.Heuristic, error) {
	switch name {
	case "off":
		return restore.HeuristicOff, nil
	case "conservative":
		return restore.HeuristicConservative, nil
	case "aggressive":
		return restore.HeuristicAggressive, nil
	case "all":
		return restore.HeuristicAll, nil
	}
	return 0, fmt.Errorf("unknown heuristic %q", name)
}
