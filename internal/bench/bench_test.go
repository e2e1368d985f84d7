package bench

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRunTiny smoke-tests every experiment end to end on the
// tiny configuration and sanity-checks the headline shapes.
func TestAllExperimentsRunTiny(t *testing.T) {
	cfg := TinyConfig()
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			table, err := exp.Run(cfg)
			if err != nil {
				t.Fatalf("%s failed: %v", exp.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", exp.ID)
			}
			out := table.String()
			if !strings.Contains(out, table.ID) {
				t.Error("rendered table missing ID")
			}
		})
	}
}

func cell(t *testing.T, table *Table, row int, col string) float64 {
	t.Helper()
	for i, c := range table.Columns {
		if c == col {
			v := strings.TrimSuffix(table.Rows[row][i], "%")
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("cell %s[%d] = %q: %v", col, row, table.Rows[row][i], err)
			}
			return f
		}
	}
	t.Fatalf("no column %q in %v", col, table.Columns)
	return 0
}

func TestFig9SpeedupShape(t *testing.T) {
	table, err := Fig9WholeJobReuse(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range table.Rows {
		if sp := cell(t, table, i, "speedup"); sp <= 1.0 {
			t.Errorf("%s: whole-job reuse speedup %.2f <= 1", table.Rows[i][0], sp)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	table, err := Fig10SubJobReuse(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range table.Rows {
		name := table.Rows[i][0]
		if sp := cell(t, table, i, "speedup"); sp <= 1.0 {
			t.Errorf("%s: sub-job reuse speedup %.2f <= 1", name, sp)
		}
		if ov := cell(t, table, i, "overhead"); ov < 1.0 {
			t.Errorf("%s: generation overhead %.2f < 1", name, ov)
		}
	}
}

func TestFig12LargerDataLargerSpeedup(t *testing.T) {
	table, err := Fig12Speedup(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's key scaling result: on average, speedup grows with data
	// size. Check the averages rather than each query.
	var s15, s150 float64
	for i := range table.Rows {
		s15 += cell(t, table, i, "15GB")
		s150 += cell(t, table, i, "150GB")
	}
	if s150 <= s15 {
		t.Errorf("avg speedup @150GB (%.1f) should exceed @15GB (%.1f)", s150, s15)
	}
}

func TestFig13AggressiveBeatsConservative(t *testing.T) {
	table, err := Fig13HeuristicsReuse(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var hc, ha, nh, no float64
	for i := range table.Rows {
		no += cell(t, table, i, "no-reuse")
		hc += cell(t, table, i, "conservative")
		ha += cell(t, table, i, "aggressive")
		nh += cell(t, table, i, "no-heuristic")
	}
	if ha > hc {
		t.Errorf("aggressive reuse (%.1f min) slower than conservative (%.1f min)", ha, hc)
	}
	if ha > no || hc > no {
		t.Error("reuse slower than no-reuse")
	}
	// HA should be within a whisker of NH (paper: identical).
	if ha > nh*1.15 {
		t.Errorf("aggressive (%.1f) much slower than no-heuristic (%.1f)", ha, nh)
	}
}

func TestTable1StoredBytesOrdering(t *testing.T) {
	table, err := Table1StoredBytes(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range table.Rows {
		name := table.Rows[i][0]
		hc := cell(t, table, i, "HC")
		ha := cell(t, table, i, "HA")
		nh := cell(t, table, i, "NH")
		if hc > ha+0.05 || ha > nh+0.05 {
			t.Errorf("%s: stored bytes not monotone HC(%.1f) <= HA(%.1f) <= NH(%.1f)", name, hc, ha, nh)
		}
	}
}

func TestFig16MonotoneTrends(t *testing.T) {
	table, err := Fig16ProjectSweep(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// As more fields are projected (more data retained), overhead must not
	// fall and speedup must not rise.
	// Tiny-scale runs are noisy (fixed costs dominate); allow small dips.
	// EXPERIMENTS.md records the default-scale run, where the trend is
	// strict.
	for i := 1; i < len(table.Rows); i++ {
		ovPrev, ov := cell(t, table, i-1, "overhead"), cell(t, table, i, "overhead")
		spPrev, sp := cell(t, table, i-1, "speedup"), cell(t, table, i, "speedup")
		if ov < ovPrev-0.10 {
			t.Errorf("QP overhead fell from %.2f to %.2f at %s fields", ovPrev, ov, table.Rows[i][0])
		}
		if sp > spPrev+0.15 {
			t.Errorf("QP speedup rose from %.2f to %.2f at %s fields", spPrev, sp, table.Rows[i][0])
		}
	}
}

func TestFig17MonotoneTrends(t *testing.T) {
	table, err := Fig17FilterSweep(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := len(table.Rows) - 1
	if sp0, spN := cell(t, table, 0, "speedup"), cell(t, table, first, "speedup"); sp0 < spN {
		t.Errorf("QF speedup should fall with selectivity: %.2f (0.5%%) < %.2f (60%%)", sp0, spN)
	}
	if ov0, ovN := cell(t, table, 0, "overhead"), cell(t, table, first, "overhead"); ov0 > ovN {
		t.Errorf("QF overhead should rise with selectivity: %.2f (0.5%%) > %.2f (60%%)", ov0, ovN)
	}
}

// TestMatchScalingShape pins the server-match headline: the indexed scan's
// full-repository (miss) probe counts stay flat while the naive path's grow
// linearly, and the indexed path is faster at every size. Wall-clock ratios
// are left to the recorded baseline (CI machines are noisy); probe counts
// are deterministic.
func TestMatchScalingShape(t *testing.T) {
	table, err := MatchScaling(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Rows alternate indexed/naive per size.
	if len(table.Rows)%2 != 0 || len(table.Rows) < 4 {
		t.Fatalf("unexpected row count %d", len(table.Rows))
	}
	var idxProbes, naiProbes []float64
	for i := 0; i < len(table.Rows); i += 2 {
		ip, np := cell(t, table, i, "probes_miss"), cell(t, table, i+1, "probes_miss")
		if ip >= np {
			t.Errorf("row %d: indexed probes %.0f >= naive %.0f", i, ip, np)
		}
		if iu, nu := cell(t, table, i, "miss_us"), cell(t, table, i+1, "miss_us"); iu >= nu {
			t.Errorf("row %d: indexed miss lookup %.1fus not faster than naive %.1fus", i, iu, nu)
		}
		idxProbes = append(idxProbes, ip)
		naiProbes = append(naiProbes, np)
	}
	last := len(naiProbes) - 1
	if naiProbes[last] < 2*naiProbes[0] {
		t.Errorf("naive probes did not grow with repository size: %v", naiProbes)
	}
	if idxProbes[last] > 2*idxProbes[0]+8 {
		t.Errorf("indexed probes grew with repository size: %v", idxProbes)
	}
}

// TestGCScalingShape pins the server-gc headline: per-mutation eviction
// scans and probes stay ~flat for the input-path-indexed pass while the
// naive sweep's grow linearly with repository size. Wall-clock ratios are
// left to the recorded baseline; the counters are deterministic.
func TestGCScalingShape(t *testing.T) {
	table, err := GCScaling(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Rows alternate indexed/naive per size.
	if len(table.Rows)%2 != 0 || len(table.Rows) < 4 {
		t.Fatalf("unexpected row count %d", len(table.Rows))
	}
	var idxScans, naiScans []float64
	for i := 0; i < len(table.Rows); i += 2 {
		is, ns := cell(t, table, i, "scans_rd"), cell(t, table, i+1, "scans_rd")
		if is >= ns {
			t.Errorf("row %d: indexed scans %.0f >= naive %.0f", i, is, ns)
		}
		if ip, np := cell(t, table, i, "probes_rd"), cell(t, table, i+1, "probes_rd"); ip >= np {
			t.Errorf("row %d: indexed probes %.0f >= naive %.0f", i, ip, np)
		}
		idxScans = append(idxScans, is)
		naiScans = append(naiScans, ns)
	}
	last := len(naiScans) - 1
	if naiScans[last] < 2*naiScans[0] {
		t.Errorf("naive scans did not grow with repository size: %v", naiScans)
	}
	if idxScans[last] > 2*idxScans[0]+4 {
		t.Errorf("indexed scans grew with repository size: %v", idxScans)
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig9"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown experiment found")
	}
}

// TestEngineScalingShape pins the structure of the server-engine table: the
// two kernel rows, the serial-plane job row, and one job row per swept
// reduce-worker count. What the rows must show — the kernel's wall-clock and
// allocation cut, every parallel-plane row under the serial one — depends on
// the machine and its load, so those thresholds run under `make bench-shape`
// (shape_benchshape_test.go), not in `go test ./...`.
func TestEngineScalingShape(t *testing.T) {
	table, err := EngineDataPlane(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 + len(engineReduceWorkerSweep); len(table.Rows) != want {
		t.Fatalf("expected %d rows, got %d", want, len(table.Rows))
	}
}

// TestShardScalingShape pins what the server-shard table must show on any
// machine: one row per shard count, and an all-disjoint stream that neither
// dedups nor sheds at any of them. The speedup floor and the monotone walls
// are wall-clock claims and run under `make bench-shape`.
func TestShardScalingShape(t *testing.T) {
	table, err := ShardScaling(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("expected 4 rows (shards 1/2/4/8), got %d", len(table.Rows))
	}
	for i := range table.Rows {
		if sub, exe := cell(t, table, i, "submitted"), cell(t, table, i, "executed"); sub != exe {
			t.Errorf("row %d: %v submitted but %v executed; the disjoint stream must not dedup or shed", i, sub, exe)
		}
	}
}
