package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	restore "repro"
)

// benchmarkShardSubmit prices one all-disjoint round against a core built
// with the given shard count: eight clients, each owning a private
// top-level namespace (so each maps to its own shard root), submit one
// distinct store query in parallel per iteration. That disjoint shards do
// not block one another is pinned by TestShardLocksAreIndependent in
// internal/dfs; this prices the same round at each shard count.
func benchmarkShardSubmit(b *testing.B, shards int) {
	const clients = 8
	sys := restore.New(restore.WithShards(shards))
	for cl := 0; cl < clients; cl++ {
		lines := make([]string, 200)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", (i*13+cl)%50, (i*7+cl)%100)
		}
		if err := sys.LoadTSV(fmt.Sprintf("c%d/in", cl), "k:int, v:int", lines, 2); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := New(Config{System: sys, Workers: clients})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		if err := srv.Close(context.Background()); err != nil {
			b.Errorf("close: %v", err)
		}
	}()
	cs := make([]*Client, clients)
	for cl := range cs {
		cs[cl] = NewClient(hs.URL)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for cl := 0; cl < clients; cl++ {
			cl := cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := fmt.Sprintf(`A = load 'c%d/in' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B), SUM(B.v);
store D into 'c%d/out/b%d';`, cl, i%97, cl, i)
				if _, err := cs[cl].Submit(src, false); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerShard prices the all-disjoint round on the single-domain
// core vs an 8-shard one. With one shard every client's namespace mutations
// serialize behind one write lock; with eight they can overlap.
func BenchmarkServerShard(b *testing.B) {
	b.Run("shards=1", func(b *testing.B) { benchmarkShardSubmit(b, 1) })
	b.Run("shards=8", func(b *testing.B) { benchmarkShardSubmit(b, 8) })
}
