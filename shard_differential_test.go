package restore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Differential oracle battery for the sharded execution core: a system built
// with WithShards(n) must be observationally identical to the single-domain
// oracle (the default New()) on any workload. Sharding partitions the DFS
// namespace, repository usage state, and lease admission purely for
// concurrency — never for semantics — so the same seeded query stream run in
// the same order must produce byte-identical DFS contents, the same
// repository entries with the same usage counters, the same reuse and
// eviction statistics, and the same per-query rewrite/evict decisions.

// seedShardNamespaces loads identical fact/dim tables into nss disjoint
// top-level namespaces (ns0/..., ns1/..., ...). Distinct top-level segments
// have distinct shard roots, so single-namespace queries land on one shard
// and cross-namespace joins span two.
func seedShardNamespaces(t *testing.T, s *System, seed int64, nss int) {
	t.Helper()
	for ns := 0; ns < nss; ns++ {
		rng := rand.New(rand.NewSource(seed*1009 + int64(ns)))
		var facts, dims []string
		for i := 0; i < 200; i++ {
			facts = append(facts, fmt.Sprintf("k%02d\t%d\t%d\tv%d",
				rng.Intn(20), rng.Intn(100), rng.Intn(10), rng.Intn(5)))
		}
		for i := 0; i < 20; i++ {
			dims = append(dims, fmt.Sprintf("k%02d\tname%d", i, i))
		}
		if err := s.LoadTSV(fmt.Sprintf("ns%d/facts", ns), "k, a:int, b:int, c", facts, 3); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadTSV(fmt.Sprintf("ns%d/dims", ns), "k, label", dims, 2); err != nil {
			t.Fatal(err)
		}
	}
}

// randomShardQuery builds a random pipeline over namespace ns, sometimes
// joining a second namespace (a cross-shard access set on the sharded
// system). idx keys the output path; reuse comes from the small operator
// space repeating sub-plans across queries.
func randomShardQuery(rng *rand.Rand, ns, other, idx int) (src, out string) {
	out = fmt.Sprintf("out/ns%d/q%d", ns, idx)
	var sb strings.Builder
	fmt.Fprintf(&sb, "F = load 'ns%d/facts' as (k, a:int, b:int, c);\n", ns)
	cur := "F"
	steps := 1 + rng.Intn(2)
	for i := 0; i < steps; i++ {
		next := fmt.Sprintf("S%d", i)
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&sb, "%s = filter %s by a > %d;\n", next, cur, 10+10*rng.Intn(6))
		case 1:
			fmt.Fprintf(&sb, "%s = foreach %s generate k, a, b, c;\n", next, cur)
		case 2:
			fmt.Fprintf(&sb, "%s = distinct %s;\n", next, cur)
		}
		cur = next
	}
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(&sb, "G = group %s by k;\nR = foreach G generate group, COUNT(%s), SUM(%s.a);\n", cur, cur, cur)
		cur = "R"
	case 1:
		// Cross-namespace join: the access set spans two shard roots, so
		// the sharded system must take a multi-shard lease.
		fmt.Fprintf(&sb, "D = load 'ns%d/dims' as (k, label);\n", other)
		fmt.Fprintf(&sb, "J = join D by k, %s by k;\n", cur)
		cur = "J"
	case 2:
		fmt.Fprintf(&sb, "O = order %s by a desc, k;\n", cur)
		cur = "O"
	}
	fmt.Fprintf(&sb, "store %s into '%s';\n", cur, out)
	return sb.String(), out
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
// through a sharded system and the single-domain oracle in the same order,
// with an evicting policy and interleaved full-GC passes. Every observable
// must match: per-query rewrite
// and eviction decisions, output rows, reuse statistics, and finally the
// byte-identical repository+DFS state.
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
			oracle := New(WithPolicy(policy))
			sharded := New(WithPolicy(policy), WithShards(nss))
			if got := sharded.Shards(); got != nss {
				t.Fatalf("Shards() = %d, want %d", got, nss)
			}
			if got := sharded.FS().NumShards(); got != nss {
				t.Fatalf("FS().NumShards() = %d, want %d", got, nss)
			}
			seedShardNamespaces(t, oracle, seed, nss)
			seedShardNamespaces(t, sharded, seed, nss)

			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < queries; q++ {
				ns := rng.Intn(nss)
				other := rng.Intn(nss)
				src, out := randomShardQuery(rng, ns, other, q)
				resO, err := oracle.Execute(src)
				if err != nil {
					t.Fatalf("oracle exec q%d:\n%s\n%v", q, src, err)
				}
				resS, err := sharded.Execute(src)
				if err != nil {
					t.Fatalf("sharded exec q%d:\n%s\n%v", q, src, err)
				}
				// Decision-level equality: the same jobs rewritten against
				// the same entries, the same entries evicted, in the same
				// order.
				if !reflect.DeepEqual(resO.Rewrites, resS.Rewrites) {
					t.Fatalf("q%d rewrite decisions diverged:\noracle %v\nsharded %v\nquery:\n%s",
						q, resO.Rewrites, resS.Rewrites, src)
				}
				if !reflect.DeepEqual(resO.Evicted, resS.Evicted) {
					t.Fatalf("q%d eviction decisions diverged:\noracle %v\nsharded %v",
						q, resO.Evicted, resS.Evicted)
				}
				rowsO, err := oracle.ReadOutputTSV(resO, out)
				if err != nil {
					t.Fatal(err)
				}
				rowsS, err := sharded.ReadOutputTSV(resS, out)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Join(rowsO, "\n") != strings.Join(rowsS, "\n") {
					t.Fatalf("q%d rows diverged: oracle %d rows, sharded %d rows", q, len(rowsO), len(rowsS))
				}
				// Interleave full-GC passes (the cross-shard reference path)
				// mid-stream, same points on both systems.
				if q%7 == 6 {
					repO := oracle.CollectGarbage()
					repS := sharded.CollectGarbage()
					if !reflect.DeepEqual(repO.Evicted, repS.Evicted) || !reflect.DeepEqual(repO.Retired, repS.Retired) {
						t.Fatalf("q%d full GC diverged:\noracle %+v\nsharded %+v", q, repO, repS)
					}
				}
			}

			if !reflect.DeepEqual(oracle.Stats(), sharded.Stats()) {
				t.Fatalf("reuse statistics diverged:\noracle  %+v\nsharded %+v", oracle.Stats(), sharded.Stats())
			}
			if got, want := exportAll(t, sharded), exportAll(t, oracle); !bytes.Equal(want, got) {
				t.Fatalf("final state diverged: oracle %d bytes, sharded %d bytes", len(want), len(got))
			}
		})
	}
}

// TestShardDifferentialConcurrent runs one goroutine per namespace against
// the sharded system — every query disjoint across goroutines, ordered
// within one — and the same per-namespace sequences sequentially on the
// oracle. Row-level results and per-namespace reuse must match: shard
// concurrency may interleave version numbers and entry IDs, but never
// change what any query computes or whether it reuses. Run under -race this
// is the shard-isolation proof.
func TestShardDifferentialConcurrent(t *testing.T) {
	const (
		nss     = 4
		queries = 10
	)
	oracle := New()
	sharded := New(WithShards(nss))
	seedShardNamespaces(t, oracle, 42, nss)
	seedShardNamespaces(t, sharded, 42, nss)

	// Pre-generate every namespace's queries so both systems see the exact
	// same scripts. No cross-namespace joins here: goroutines must stay
	// disjoint for order within a namespace to determine reuse.
	scripts := make([][]string, nss)
	outs := make([][]string, nss)
	for ns := 0; ns < nss; ns++ {
		rng := rand.New(rand.NewSource(int64(1000 + ns)))
		for q := 0; q < queries; q++ {
			src, out := randomShardQuery(rng, ns, ns, ns*queries+q)
			scripts[ns] = append(scripts[ns], src)
			outs[ns] = append(outs[ns], out)
		}
	}

	oracleRows := make([]map[string][]string, nss)
	for ns := 0; ns < nss; ns++ {
		oracleRows[ns] = map[string][]string{}
		for q, src := range scripts[ns] {
			res, err := oracle.Execute(src)
			if err != nil {
				t.Fatalf("oracle ns%d q%d: %v", ns, q, err)
			}
			rows, err := oracle.ReadOutputTSV(res, outs[ns][q])
			if err != nil {
				t.Fatal(err)
			}
			oracleRows[ns][outs[ns][q]] = rows
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, nss)
	shardedRows := make([]map[string][]string, nss)
	for ns := 0; ns < nss; ns++ {
		ns := ns
		shardedRows[ns] = map[string][]string{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q, src := range scripts[ns] {
				res, err := sharded.Execute(src)
				if err != nil {
					errs <- fmt.Errorf("sharded ns%d q%d: %w", ns, q, err)
					return
				}
				rows, err := sharded.ReadOutputTSV(res, outs[ns][q])
				if err != nil {
					errs <- fmt.Errorf("sharded ns%d q%d rows: %w", ns, q, err)
					return
				}
				shardedRows[ns][outs[ns][q]] = rows
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for ns := 0; ns < nss; ns++ {
		for out, want := range oracleRows[ns] {
			if got := shardedRows[ns][out]; strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("ns%d %s: concurrent sharded rows diverged (%d vs %d rows)", ns, out, len(got), len(want))
			}
		}
	}
	// Reuse totals: order within each namespace is preserved and namespaces
	// are disjoint, so hits cannot depend on the cross-namespace schedule.
	so, ss := oracle.Stats(), sharded.Stats()
	if so.Queries != ss.Queries || so.QueriesReused != ss.QueriesReused ||
		so.WholeJobReuses != ss.WholeJobReuses || so.SubJobReuses != ss.SubJobReuses {
		t.Errorf("concurrent sharded reuse diverged:\noracle  queries=%d reused=%d whole=%d sub=%d\nsharded queries=%d reused=%d whole=%d sub=%d",
			so.Queries, so.QueriesReused, so.WholeJobReuses, so.SubJobReuses,
			ss.Queries, ss.QueriesReused, ss.WholeJobReuses, ss.SubJobReuses)
	}
}
