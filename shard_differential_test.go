package restore

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/oracle"
)

// Differential oracle battery for the sharded execution core: a system built
// with WithShards(n) must be observationally identical to the single-domain
// oracle (the default New()) on any workload. Sharding partitions the DFS
// namespace (and the daemon's WAL streams) purely for concurrency — never
// for semantics — so the same seeded query stream run in
// the same order must produce byte-identical DFS contents, the same
// repository entries with the same usage counters, the same reuse and
// eviction statistics, and the same per-query rewrite/evict decisions.

// shardTables returns nss table sets, one per top-level namespace
// (ns0/..., ns1/..., ...). Distinct top-level segments have distinct shard
// roots, so a query over one namespace lands on one shard and a query over
// two spans both.
func shardTables(seed int64, nss int) [][]oracle.Table {
	out := make([][]oracle.Table, nss)
	for ns := range out {
		out[ns] = oracle.Tables(seed*1009+int64(ns), fmt.Sprintf("ns%d", ns))
	}
	return out
}

// loadTables writes table sets into a system's DFS.
func loadTables(t testing.TB, s *System, sets ...[]oracle.Table) {
	t.Helper()
	for _, tables := range sets {
		if err := oracle.Load(s.FS(), tables); err != nil {
			t.Fatal(err)
		}
	}
}

// oracleRows runs a script on the oracle and returns what out receives.
func oracleRows(t testing.TB, src, out string, tables []oracle.Table) oracle.Output {
	t.Helper()
	res, err := oracle.Run(src, tables)
	if err != nil {
		t.Fatalf("oracle: %v\n%s", err, src)
	}
	return res[out]
}

// checkRows reads one output of a result and checks it against the oracle.
func checkRows(t testing.TB, s *System, res *Result, out string, want oracle.Output) error {
	t.Helper()
	rows, err := s.ReadOutput(res, out)
	if err != nil {
		t.Fatal(err)
	}
	return oracle.Diff(want, rows)
}

// exportAll captures a system's full durable state (repository JSON + DFS
// JSON, both deterministic serializations) for byte-level comparison.
func exportAll(t *testing.T, s *System) []byte {
	t.Helper()
	var repo, fsb bytes.Buffer
	if err := s.SaveState(&repo, &fsb); err != nil {
		t.Fatal(err)
	}
	return append(repo.Bytes(), fsb.Bytes()...)
}

// TestShardDifferentialOracle runs seeded mixed conflict/disjoint workloads
// through a sharded system and the single-domain one in the same order,
// with an evicting policy and interleaved full-GC passes. The scripts come
// from the oracle's generator over four namespaces, so some join or union
// across shards. Every observable must match: per-query rewrite and
// eviction decisions, reuse statistics, and finally the byte-identical
// repository+DFS state; and both systems' rows must equal the oracle's.
func TestShardDifferentialOracle(t *testing.T) {
	const (
		seeds   = 3
		queries = 24
		nss     = 4
	)
	policy := Policy{KeepAll: true, CheckInputVersions: true, EvictionWindow: 10, OutputRetention: 12}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			single := New(WithPolicy(policy))
			sharded := New(WithPolicy(policy), WithShards(nss))
			if got := sharded.Shards(); got != nss {
				t.Fatalf("Shards() = %d, want %d", got, nss)
			}
			if got := sharded.FS().NumShards(); got != nss {
				t.Fatalf("FS().NumShards() = %d, want %d", got, nss)
			}
			sets := shardTables(seed, nss)
			var tables []oracle.Table
			for _, set := range sets {
				tables = append(tables, set...)
			}
			loadTables(t, single, tables)
			loadTables(t, sharded, tables)

			gen := oracle.NewGen(seed, tables)
			for q := 0; q < queries; q++ {
				out := fmt.Sprintf("out/q%d", q)
				src := gen.Script(out)
				want := oracleRows(t, src, out, tables)
				resO, err := single.Execute(src)
				if err != nil {
					t.Fatalf("single exec q%d:\n%s\n%v", q, src, err)
				}
				resS, err := sharded.Execute(src)
				if err != nil {
					t.Fatalf("sharded exec q%d:\n%s\n%v", q, src, err)
				}
				// Decision-level equality: the same jobs rewritten against
				// the same entries, the same entries evicted, in the same
				// order.
				if !reflect.DeepEqual(resO.Rewrites, resS.Rewrites) {
					t.Fatalf("q%d rewrite decisions diverged:\nsingle %v\nsharded %v\nquery:\n%s",
						q, resO.Rewrites, resS.Rewrites, src)
				}
				if !reflect.DeepEqual(resO.Evicted, resS.Evicted) {
					t.Fatalf("q%d eviction decisions diverged:\nsingle %v\nsharded %v",
						q, resO.Evicted, resS.Evicted)
				}
				if err := checkRows(t, single, resO, out, want); err != nil {
					t.Fatalf("q%d single rows: %v\n%s", q, err, src)
				}
				if err := checkRows(t, sharded, resS, out, want); err != nil {
					t.Fatalf("q%d sharded rows: %v\n%s", q, err, src)
				}
				// Interleave full-GC passes (the cross-shard reference path)
				// mid-stream, same points on both systems.
				if q%7 == 6 {
					repO := single.CollectGarbage()
					repS := sharded.CollectGarbage()
					if !reflect.DeepEqual(repO.Evicted, repS.Evicted) || !reflect.DeepEqual(repO.Retired, repS.Retired) {
						t.Fatalf("q%d full GC diverged:\nsingle %+v\nsharded %+v", q, repO, repS)
					}
				}
			}

			if !reflect.DeepEqual(single.Stats(), sharded.Stats()) {
				t.Fatalf("reuse statistics diverged:\nsingle  %+v\nsharded %+v", single.Stats(), sharded.Stats())
			}
			if got, want := exportAll(t, sharded), exportAll(t, single); !bytes.Equal(want, got) {
				t.Fatalf("final state diverged: single %d bytes, sharded %d bytes", len(want), len(got))
			}
		})
	}
}

// TestShardDifferentialConcurrent runs one goroutine per namespace against
// the sharded system — every query disjoint across goroutines, ordered
// within one — and the same per-namespace sequences sequentially on the
// single-domain system. Rows must equal the oracle's on both, and
// per-namespace reuse must match: shard concurrency may interleave version
// numbers and entry IDs, but never change what any query computes or
// whether it reuses. Run under -race this is the shard-isolation proof.
func TestShardDifferentialConcurrent(t *testing.T) {
	const (
		nss     = 4
		queries = 10
	)
	single := New()
	sharded := New(WithShards(nss))
	sets := shardTables(42, nss)
	loadTables(t, single, sets...)
	loadTables(t, sharded, sets...)

	// Pre-generate every namespace's queries so both systems see the exact
	// same scripts. Each generator sees one namespace's tables: goroutines
	// must stay disjoint for order within a namespace to determine reuse.
	scripts := make([][]string, nss)
	outs := make([][]string, nss)
	wants := make([][]oracle.Output, nss)
	for ns := 0; ns < nss; ns++ {
		gen := oracle.NewGen(int64(1000+ns), sets[ns])
		for q := 0; q < queries; q++ {
			out := fmt.Sprintf("out/ns%d/q%d", ns, q)
			src := gen.Script(out)
			scripts[ns] = append(scripts[ns], src)
			outs[ns] = append(outs[ns], out)
			wants[ns] = append(wants[ns], oracleRows(t, src, out, sets[ns]))
		}
	}

	for ns := 0; ns < nss; ns++ {
		for q, src := range scripts[ns] {
			res, err := single.Execute(src)
			if err != nil {
				t.Fatalf("single ns%d q%d: %v", ns, q, err)
			}
			if err := checkRows(t, single, res, outs[ns][q], wants[ns][q]); err != nil {
				t.Errorf("single ns%d q%d: %v\n%s", ns, q, err, src)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, nss*queries)
	for ns := 0; ns < nss; ns++ {
		ns := ns
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q, src := range scripts[ns] {
				res, err := sharded.Execute(src)
				if err != nil {
					errs <- fmt.Errorf("sharded ns%d q%d: %w", ns, q, err)
					return
				}
				rows, err := sharded.ReadOutput(res, outs[ns][q])
				if err == nil {
					err = oracle.Diff(wants[ns][q], rows)
				}
				if err != nil {
					errs <- fmt.Errorf("sharded ns%d q%d rows: %w", ns, q, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Reuse totals: order within each namespace is preserved and namespaces
	// are disjoint, so hits cannot depend on the cross-namespace schedule.
	so, ss := single.Stats(), sharded.Stats()
	if so.Queries != ss.Queries || so.QueriesReused != ss.QueriesReused ||
		so.WholeJobReuses != ss.WholeJobReuses || so.SubJobReuses != ss.SubJobReuses {
		t.Errorf("concurrent sharded reuse diverged:\nsingle  queries=%d reused=%d whole=%d sub=%d\nsharded queries=%d reused=%d whole=%d sub=%d",
			so.Queries, so.QueriesReused, so.WholeJobReuses, so.SubJobReuses,
			ss.Queries, ss.QueriesReused, ss.WholeJobReuses, ss.SubJobReuses)
	}
}
