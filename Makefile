# Developer/CI entry points. `make check` is the gate referenced in README.

GO ?= go

.PHONY: check fmt vet test race race-server race-shard race-engine race-fleet docs-check build bench-selftest bench-shape bench-match bench-match-smoke bench-gc bench-gc-smoke bench-obs bench-obs-smoke bench-hot bench-hot-smoke bench-shard bench-shard-smoke bench-engine bench-engine-smoke bench-fleet bench-fleet-smoke

check: fmt vet docs-check bench-selftest race race-server race-shard race-engine race-fleet bench-match-smoke bench-gc-smoke bench-obs-smoke bench-hot-smoke bench-shard-smoke bench-engine-smoke bench-fleet-smoke

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency and crash-recovery battery (the lease table's rule and
# property tests in the root package, the daemon's stress/liveness/drain
# tests, plus the WAL torn-tail/replay tests) runs twice under the detector:
# interleavings differ per run. internal/core rides along for the
# indexed-vs-naive match equivalence property test.
race-server:
	$(GO) test -race -count=2 -run 'TestLease|TestPropertyLeases|TestExecuteRead' .
	$(GO) test -race -count=2 ./internal/server/... ./internal/persist/... ./internal/core/...

# The benchmark is its own module (benchmark/go.mod replaces repro => ../),
# so `go build ./... && go test ./...` neither compiles nor runs it. This
# does both (counts only, ~7 s): a change to an exported seam the benchmark
# uses (System methods, server.Config, the wire types) fails here rather
# than in the driver.
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The wall-clock and allocation thresholds of the server-engine and
# server-shard tables: re-measured on this machine, so run on a quiet one.
# Kept out of `go test ./...` (and of `check`), whose tests must not depend
# on load; the row-count and submitted == executed assertions stay there.
bench-shape:
	$(GO) test -tags benchshape -count=1 -run 'WallClockShape' ./internal/bench

# The sharded-core battery: the differential oracle (sharded system must be
# observationally identical to the single-domain one), the cross-shard
# barrier stress storm, and the shard-key unit/fuzz corpus. Runs twice under
# the detector: the concurrent phases' interleavings differ per run.
race-shard:
	$(GO) test -race -count=2 -run 'TestShard|TestUniversalBarrier' .
	$(GO) test -race -count=2 ./internal/shardkey/...

# The engine data-plane battery: the differential oracle (the parallel
# sorted-run/k-way-merge plane must be byte-identical to the serial
# single-sort reference), the multi-failure map-phase error collection, and
# the compiled-comparator fuzz corpus. Runs twice under the detector: map
# and reduce pool interleavings differ per run.
race-engine:
	$(GO) test -race -count=2 -run 'TestEngineDataPlane|TestEngineMapPhaseCollectsAllErrors' ./internal/mapred
	$(GO) test -race -count=2 -run 'FuzzShuffleComparator|TestCompareColumnMatchesCompare' ./internal/mapred ./internal/types

# Matcher microbenchmarks: indexed vs naive best-match scan across
# repository sizes, plus the mapping-map allocation profile.
bench-match:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkFindBestMatch|BenchmarkMatchMappingAllocs' -benchmem

# One-iteration smoke of the same benchmarks so the indexed match path is
# exercised (and kept compiling) by every `make check` run.
bench-match-smoke:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkFindBestMatch|BenchmarkMatchMappingAllocs' -benchtime 1x

# Eviction microbenchmarks: one input mutation's Rule-4 invalidation cost
# through the input-path index vs the naive full sweep, across repository
# sizes.
bench-gc:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkEvict' -benchmem

# One-iteration smoke of the eviction benchmarks for every `make check`.
bench-gc-smoke:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkEvict' -benchtime 1x

# Telemetry microbenchmarks: histogram/trace/rate-window record costs, plus
# the full serving path instrumented vs obs.Disabled. The representative
# (cluster-latency) comparison is the server-obs experiment in restore-bench.
bench-obs:
	$(GO) test ./internal/obs ./internal/server -run '^$$' -bench 'BenchmarkHistogramObserve|BenchmarkRegistry|BenchmarkTracePerQuery|BenchmarkRateWindowMark|BenchmarkServerSubmit' -benchmem

# One-iteration smoke of the telemetry benchmarks for every `make check`.
bench-obs-smoke:
	$(GO) test ./internal/obs ./internal/server -run '^$$' -bench 'BenchmarkHistogramObserve|BenchmarkRegistry|BenchmarkTracePerQuery|BenchmarkRateWindowMark|BenchmarkServerSubmit' -benchtime 1x

# Hot-path microbenchmarks: repeat-query submission with the zero-compile
# hot path (plan cache + result fast path) on vs off. The representative
# (cluster-latency) comparison is the server-hot experiment in restore-bench.
bench-hot:
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServerHot' -benchmem

# One-iteration smoke of the hot-path benchmark for every `make check`.
bench-hot-smoke:
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServerHot' -benchtime 1x

# Sharded-core microbenchmark: the all-disjoint round on a single-domain
# core vs an 8-shard one. The representative scaling curve (shards
# 1/2/4/8 under op-latency emulation) is the server-shard experiment in
# restore-bench.
bench-shard:
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServerShard' -benchmem

# One-iteration smoke of the shard benchmark for every `make check`.
bench-shard-smoke:
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServerShard' -benchtime 1x

# Engine data-plane microbenchmarks: the reduce-side ordering kernel
# (concat + stable sort vs sorted runs + k-way merge) and the whole
# shuffle-heavy order job on each plane. The representative sweep (reduce
# workers 1/2/4/8 with alloc totals) is the server-engine experiment in
# restore-bench.
bench-engine:
	$(GO) test ./internal/mapred -run '^$$' -bench 'BenchmarkShuffleKernel|BenchmarkEngineOrderJob' -benchmem

# One-iteration smoke of the engine benchmarks for every `make check`.
bench-engine-smoke:
	$(GO) test ./internal/mapred -run '^$$' -bench 'BenchmarkShuffleKernel|BenchmarkEngineOrderJob' -benchtime 1x

# The fleet backend battery: the backend differential oracle (the worker
# fleet must leave repository and DFS byte-identical to the in-process
# engine), the fault-injection suite (worker crash before/mid/after map,
# torn shuffle pulls, duplicate completions, repository-backed recovery),
# and the wire-codec round-trip property. Runs twice under the detector:
# coordinator dispatch and worker slot interleavings differ per run.
race-fleet:
	$(GO) test -race -count=2 ./internal/fleet/...
	$(GO) test -race -count=2 -run 'TestCodecRoundTrip|TestCodecRejects' ./internal/mapred

# Fleet microbenchmark: a grouped-aggregate query stream through a two-worker
# HTTP fleet. The representative scaling curve (fleet 1/2/3 with per-task
# compute emulation) is the server-fleet experiment in restore-bench.
bench-fleet:
	$(GO) test ./internal/fleet -run '^$$' -bench 'BenchmarkFleet' -benchmem

# One-iteration smoke of the fleet benchmark for every `make check`.
bench-fleet-smoke:
	$(GO) test ./internal/fleet -run '^$$' -bench 'BenchmarkFleet' -benchtime 1x

# Fails when an exported identifier in the documented packages
# (internal/server, internal/dfs, internal/core, root access.go) lacks a doc
# comment; those comments are the ground truth docs/ARCHITECTURE.md points at.
docs-check:
	sh scripts/docs_check.sh
