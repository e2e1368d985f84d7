# Developer/CI entry points. `make check` is the gate referenced in README.

GO ?= go

BENCHES := match gc obs hot shard engine fleet types

.PHONY: check fmt vet test flake fuzz race race-server race-shard race-engine race-fleet oracle-imports docs-check build bench-selftest $(BENCHES:%=bench-%) $(BENCHES:%=bench-%-smoke)

check: fmt vet oracle-imports docs-check bench-selftest race race-server race-shard race-engine race-fleet $(BENCHES:%=bench-%-smoke)

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# internal/oracle is the test-only reference evaluator and query generator.
# Fails if any package imports it from a non-test file (go list's .Imports
# leaves out test files' imports).
oracle-imports:
	@out=$$($(GO) list -f '{{.ImportPath}}:{{range .Imports}} {{.}}{{end}}' ./... | grep -E ' repro/internal/oracle( |$$)' | cut -d: -f1); \
	if [ -n "$$out" ]; then \
		echo "internal/oracle is test-only; imported by:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# Twenty uncached runs of every package except internal/bench (the paper
# figures run on simulated time and are most of tier-1's wall clock). A test
# that fails once in twenty is red here before it is red in a tier-1 run.
flake:
	$(GO) test -count=20 $$($(GO) list ./... | grep -v '/internal/bench$$')

# Each fuzz target for FUZZTIME; go test -fuzz takes one target per run.
# Not part of check: tier-1 runs only the checked-in corpora.
FUZZTIME ?= 30s
FUZZ_TARGETS := FuzzReplayFile:./internal/persist FuzzDecodeTuple:./internal/types \
	FuzzRecordsTSV:./internal/types FuzzDecodeAliased:./internal/types \
	FuzzParse:./internal/piglatin FuzzShardKey:./internal/dfs \
	FuzzShuffleComparator:./internal/mapred FuzzDecodeJob:./internal/mapred \
	FuzzLoadRepository:./internal/core

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		$(GO) test $${t#*:} -run '^$$' -fuzz "^$${t%%:*}$$" -fuzztime $(FUZZTIME); \
	done

race:
	$(GO) test -race ./...

# The concurrency and crash-recovery battery (the lease table's rule and
# property tests in the root package, the daemon's stress/liveness/drain
# tests, plus the WAL torn-tail/replay tests) runs twice under the detector:
# interleavings differ per run. internal/core rides along for the
# indexed-vs-naive match equivalence property test (FindBestMatchNaive is
# the reference for which entry matches, which no row comparison sees).
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

# The oracle and sharded-core batteries: every seeded script's rows equal
# internal/oracle's at every point of {shards 1, 4} x {reuse off, cold,
# warm, hot} x {PrepareCached, Prepare}; the shard differential (the sharded
# system makes the single-domain one's decisions and leaves its
# byte-identical state, with the oracle's rows); int and double keys meeting
# at any partition count; the universal-barrier stress storm; and the DFS
# routing tests (the golden pinning which shard, and so which WAL stream,
# owns each path) with their fuzz corpus. Runs twice under the detector: the
# concurrent phases' interleavings differ per run.
race-shard:
	$(GO) test -race -count=2 -run 'TestOracleBattery|TestNumericKeys|TestShard|TestUniversalBarrier' .
	$(GO) test -race -count=2 -run 'TestRoutingGolden|TestRootDepthRule|TestIndexStableAndBounded|TestSubtreeColocates|TestShardLocks|FuzzShardKey' ./internal/dfs

# The engine data-plane battery: every job's rows equal internal/oracle's
# exactly (kinds, bag order, which of two equal keys), and the drawn map and
# reduce parallelism leaves the same DFS bytes and JobResults as
# parallelism 1; the multi-failure map-phase error collection; the
# compiled-comparator fuzz corpus; HashTuple agreeing with Compare; the
# types.Value layout tests; and the aliasing decode's tests (the aliasing vs
# copying differential corpus, strings surviving the collector once only
# they hold a partition, and an L3 workflow in process and through a fleet
# leaving every partition it read intact). -race checks their unsafe
# conversions with checkptr. Runs twice under the detector: map and reduce
# pool interleavings differ per run.
race-engine:
	$(GO) test -race -count=2 -run 'TestEngineDataPlane|TestEngineMapPhaseCollectsAllErrors' ./internal/mapred
	$(GO) test -race -count=2 -run 'FuzzShuffleComparator|TestCompareColumnMatchesCompare|TestHash|TestValue|FuzzDecodeAliased|TestAliased' ./internal/mapred ./internal/types ./internal/dfs ./internal/fleet

# The fleet backend battery: the backend differential (the worker fleet
# makes the in-process engine's rewrite decisions, leaves repository and DFS
# byte-identical to it, and both store internal/oracle's rows for the
# generator's scripts), the fault-injection suite (worker crash before/mid/after map,
# torn shuffle pulls, duplicate completions, repository-backed recovery),
# and the wire-codec round-trip property. Runs twice under the detector:
# coordinator dispatch and worker slot interleavings differ per run.
race-fleet:
	$(GO) test -race -count=2 ./internal/fleet/...
	$(GO) test -race -count=2 -run 'TestCodecRoundTrip|TestCodecRejects' ./internal/mapred

# Microbenchmarks, un-emulated: `make bench-NAME` runs them with -benchmem,
# `make bench-NAME-smoke` runs one iteration of each so every `make check`
# exercises (and keeps compiling) the measured path. What each name measures:
#   match   indexed vs naive best-match scan across repository sizes, plus
#           the mapping-map allocation profile
#   gc      one input mutation's Rule-4 invalidation through the input-path
#           index vs the naive full sweep, across repository sizes
#   obs     histogram/trace/rate-window record costs, plus the full serving
#           path instrumented vs obs.Disabled
#   hot     repeat-query submission with the zero-compile hot path on vs off
#           (3-row replies), plus the hot path serving a 4000-row reply:
#           the row read-back from stored bytes to reply bytes
#   shard   the all-disjoint round on a single-domain core vs an 8-shard one
#   engine  the reduce-side ordering kernel (concat + stable sort over the
#           closure-chain reference order vs sorted runs + k-way merge) and
#           the whole order job on the data plane
#   fleet   a grouped-aggregate query stream through a two-worker HTTP fleet
#   types   the tuple codec and order on the Value layout: encode, decode
#           (a narrow row and a 9-column page_views-shaped row) and
#           CompareTuples on records that tie until the last column
# End-to-end speed (throughput, latency, the layer budget) is not here: it
# is `bash benchmark/run.sh`. Per name, the package(s) and the regexp:
BENCH_PKG_match  := ./internal/core
BENCH_RE_match   := BenchmarkFindBestMatch|BenchmarkMatchMappingAllocs
BENCH_PKG_gc     := ./internal/core
BENCH_RE_gc      := BenchmarkEvict
BENCH_PKG_obs    := ./internal/obs ./internal/server
BENCH_RE_obs     := BenchmarkHistogramObserve|BenchmarkRegistry|BenchmarkTracePerQuery|BenchmarkRateWindowMark|BenchmarkServerSubmit
BENCH_PKG_hot    := ./internal/server
BENCH_RE_hot     := BenchmarkServerHot
BENCH_PKG_shard  := ./internal/server
BENCH_RE_shard   := BenchmarkServerShard
BENCH_PKG_engine := ./internal/mapred
BENCH_RE_engine  := BenchmarkShuffleKernel|BenchmarkEngineOrderJob
BENCH_PKG_fleet  := ./internal/fleet
BENCH_RE_fleet   := BenchmarkFleet
BENCH_PKG_types  := ./internal/types
BENCH_RE_types   := BenchmarkEncodeTuple|BenchmarkDecodeTuple|BenchmarkCompareTuples

$(BENCHES:%=bench-%): bench-%:
	$(GO) test $(BENCH_PKG_$*) -run '^$$' -bench '$(BENCH_RE_$*)' -benchmem

$(BENCHES:%=bench-%-smoke): bench-%-smoke:
	$(GO) test $(BENCH_PKG_$*) -run '^$$' -bench '$(BENCH_RE_$*)' -benchtime 1x

# Fails when an exported identifier in the documented packages (see
# scripts/docs_check.sh) lacks a doc comment — those comments are the ground
# truth docs/ARCHITECTURE.md points at — or when docs/ or README.md cite
# code by file:line instead of by symbol.
docs-check:
	sh scripts/docs_check.sh
