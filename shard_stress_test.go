package restore

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/oracle"
)

// TestShardBarrierStress storms a sharded system from three sides at once:
// per-namespace query workers (single- and multi-shard paths), one GC
// goroutine per shard (CollectGarbage passes draining the dirty feed under
// retention leases), and a checkpoint loop taking the universal barrier
// (SaveState), which drains the lease table and reads every DFS shard. The
// test proves the barrier under contention: no deadlock (the test
// finishes), no lost entries (every surviving repository entry's stored
// output still exists and still serves a reuse), and a quiesced lease table
// at the end.
func TestShardBarrierStress(t *testing.T) {
	const (
		nss      = 4
		rounds   = 12
		gcTicks  = 20
		saves    = 10
		shards   = 4
		querySet = 6
	)
	sys := New(WithPolicy(Policy{KeepAll: true, CheckInputVersions: true, EvictionWindow: 15}), WithShards(shards))
	sets := shardTables(99, nss)
	loadTables(t, sys, sets...)

	// A small rotating query set per namespace: repeats force reuse hits,
	// rotation forces registrations and (with the window) evictions, and
	// scripts drawn over a second namespace's tables as well force
	// multi-shard leases.
	queryFor := func(ns, round int) string {
		idx := round % querySet
		other := (ns + 1 + round%(nss-1)) % nss
		gen := oracle.NewGen(int64(ns*1000+idx), append(append([]oracle.Table(nil), sets[ns]...), sets[other]...))
		return gen.Script(fmt.Sprintf("out/ns%d/q%d", ns, ns*querySet+idx))
	}

	var failures atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})

	for ns := 0; ns < nss; ns++ {
		ns := ns
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if _, err := sys.Execute(queryFor(ns, round)); err != nil {
					t.Errorf("ns%d round %d: %v", ns, round, err)
					failures.Add(1)
					return
				}
			}
		}()
	}
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < gcTicks; n++ {
				select {
				case <-done:
					return
				default:
				}
				sys.CollectGarbage()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < saves; n++ {
			select {
			case <-done:
				return
			default:
			}
			if err := sys.SaveState(io.Discard, io.Discard); err != nil {
				t.Errorf("checkpoint %d: %v", n, err)
				failures.Add(1)
				return
			}
		}
	}()

	wg.Wait()
	close(done)
	if failures.Load() > 0 {
		t.Fatal("storm aborted early; invariants below would be vacuous")
	}

	// No lost entries: everything the repository still indexes must be
	// readable, and every dangling reference is a bug in a GC pass or the
	// barrier (an eviction that removed the file but not the entry, or a
	// checkpoint that raced a pass's removal).
	if sys.leases.inflightCount() != 0 {
		t.Fatalf("lease table not drained after the storm: %d inflight", sys.leases.inflightCount())
	}
	entries := sys.Repository().All()
	if len(entries) == 0 {
		t.Fatal("storm left an empty repository; reuse premise broken")
	}
	for _, e := range entries {
		if !sys.fs.Exists(e.OutputPath) {
			t.Errorf("entry %s survived but its stored output %s is gone", e.ID, e.OutputPath)
		}
	}
	// And the survivors still serve: re-running each namespace's last query
	// on the warmed system must succeed (typically as a whole-job reuse).
	before := sys.Stats().QueriesReused
	for ns := 0; ns < nss; ns++ {
		if _, err := sys.Execute(queryFor(ns, rounds-1)); err != nil {
			t.Fatalf("post-storm reuse probe ns%d: %v", ns, err)
		}
	}
	if after := sys.Stats().QueriesReused; after == before {
		t.Log("post-storm probes hit no reuse (legal after heavy eviction, but worth a look)")
	}
	// A final full pass must find a consistent system (no deferred work
	// stuck behind a lost lease).
	rep := sys.CollectGarbage()
	for _, p := range rep.Evicted {
		_ = p // decisions are policy's business; the pass completing is the invariant
	}
}

// TestUniversalBarrierOrdering pins deadlock freedom directly: many
// goroutines acquiring overlapping leases over paths on different DFS
// shards (including the universal set) in parallel must all complete.
func TestUniversalBarrierOrdering(t *testing.T) {
	const shards = 4
	sys := New(WithShards(shards))
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 30; n++ {
				var a AccessSet
				switch (i + n) % 3 {
				case 0:
					a = UniversalAccess()
				case 1:
					// Two deep paths on (usually) different shards.
					a = AccessSet{Writes: []string{fmt.Sprintf("ns%d/x", n%4), fmt.Sprintf("ns%d/y", (n+1)%4)}}
				case 2:
					a = AccessSet{Reads: []string{fmt.Sprintf("ns%d/x", n%4)}, Writes: []string{fmt.Sprintf("ns%d/z", (n+2)%4)}}
				}
				l := sys.leases.acquire(a)
				sys.leases.release(l)
			}
		}()
	}
	wg.Wait()
	if got := sys.leases.inflightCount(); got != 0 {
		t.Fatalf("inflight %d after all leases released", got)
	}
}
