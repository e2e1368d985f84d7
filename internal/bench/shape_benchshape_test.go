//go:build benchshape && !race

package bench

import "testing"

// The wall-clock and allocation thresholds of the scaling tables. They are
// re-measured on whatever machine runs them, so a loaded or single-core host
// can miss them without anything being wrong with the code; `make
// bench-shape` runs them on demand and `go test ./...` does not. The race
// detector is excluded outright: it slows the planes unevenly, and under it
// sync.Pool deliberately drops entries, so the pooled plane's allocation
// profile means nothing there.

// TestEngineWallClockShape pins the server-engine headline: the reduce-side
// ordering kernel (sorted runs + compiled-comparator k-way merge) must beat
// the serial concat-and-stable-sort reference by at least 2x wall-clock
// while allocating at most half its bytes, and every whole-job row on the
// default plane must beat the serial plane. The per-worker walls are NOT
// asserted monotone: on a single-core host the reduce pool cannot overlap
// partition work, so the sweep is ~flat there by design (the recorded
// baseline documents the curve of the machine that recorded it).
func TestEngineWallClockShape(t *testing.T) {
	table, err := EngineDataPlane(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	kSerial, kMerge := cell(t, table, 0, "wall_ms"), cell(t, table, 1, "wall_ms")
	if kMerge < 1 {
		kMerge = 1 // sub-millisecond kernel rounds round down to 0
	}
	if kSerial/kMerge < 2.0 {
		t.Errorf("kernel speedup %.2fx below the 2x floor (serial %.0fms, merge %.0fms)", kSerial/kMerge, kSerial, kMerge)
	}
	aSerial, aMerge := cell(t, table, 0, "alloc_mb"), cell(t, table, 1, "alloc_mb")
	if aMerge > aSerial/2 {
		t.Errorf("kernel allocation %.2fMB not cut >=50%% vs serial %.2fMB", aMerge, aSerial)
	}
	jSerial := cell(t, table, 2, "wall_ms")
	for i := 3; i < len(table.Rows); i++ {
		w := cell(t, table, i, "wall_ms")
		if w >= jSerial {
			t.Errorf("parallel plane (workers=%s) wall %.0fms not under serial plane %.0fms", table.Rows[i][1], w, jSerial)
		}
	}
}

// TestShardWallClockShape pins the server-shard headline: the all-disjoint
// workload must run strictly faster as the core's shard count grows, and
// the 8-shard row must beat the single-domain core by a clear margin. The
// asserted floor (2x) sits well under the recorded baseline (~3.8x) so the
// test survives scheduler jitter; the recorded curve is the number that
// matters.
func TestShardWallClockShape(t *testing.T) {
	table, err := ShardScaling(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	walls := make([]float64, len(table.Rows))
	for i := range table.Rows {
		walls[i] = cell(t, table, i, "wall_ms")
	}
	if walls[3] <= 0 || walls[0]/walls[3] < 2.0 {
		t.Errorf("8-shard speedup %.2fx below the 2x floor (walls %v)", walls[0]/walls[3], walls)
	}
	if walls[1] >= walls[0] || walls[3] >= walls[1] {
		t.Errorf("wall times not improving with shard count: %v", walls)
	}
}
