// Command restore-worker runs one fleet worker process: a stateless task
// executor the restored daemon (started with -fleet-workers) ships compiled
// map tasks and reduce partitions to over HTTP/JSON. Workers hold no DFS —
// inputs arrive as raw partition bytes, outputs return as raw bytes — and
// retain only the sorted shuffle runs of executed map tasks so reduce-side
// peers can pull them (GET /v1/shuffle).
//
// Usage:
//
//	restore-worker                                   # serve on :7741
//	restore-worker -addr 127.0.0.1:7742              # pick the listen address
//	restore-worker -worker-addr http://10.0.0.2:7742 # advertised base URL (peers pull shuffle runs from it)
//	restore-worker -slots 4                          # concurrent task slots (0 = GOMAXPROCS)
//
// Endpoints: POST /v1/map, POST /v1/reduce, GET /v1/shuffle, POST /v1/release,
// GET /v1/healthz.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
)

func main() {
	var (
		addr       = flag.String("addr", ":7741", "listen address")
		workerAddr = flag.String("worker-addr", "", "advertised base URL peers and the coordinator reach this worker at (default http://<listen addr>)")
		slots      = flag.Int("slots", 0, "concurrent task execution slots (0 = GOMAXPROCS)")
	)
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "restore-worker:", err)
		os.Exit(1)
	}
	advertised := *workerAddr
	if advertised == "" {
		advertised = "http://" + ln.Addr().String()
	}
	w := fleet.NewWorker(fleet.WorkerConfig{
		Addr:  advertised,
		Slots: *slots,
	})
	slog.Info("restore-worker listening", "addr", ln.Addr().String(), "advertised", advertised, "slots", *slots)

	srv := &http.Server{Handler: w.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var srvErr error
	select {
	case s := <-sig:
		slog.Info("shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "restore-worker: shutdown:", err)
			os.Exit(1)
		}
		srvErr = <-serveErr
	case srvErr = <-serveErr:
	}
	if srvErr != nil && srvErr != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "restore-worker: serve:", srvErr)
		os.Exit(1)
	}
}
