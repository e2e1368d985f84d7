package bench

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// tinyTables runs each experiment at most once per test process on the tiny
// configuration: TestAllExperimentsRunTiny and the per-figure shape tests
// below read the same table instead of each paying for its own run.
var tinyTables = func() map[string]func() (*Table, error) {
	m := map[string]func() (*Table, error){}
	for _, exp := range Experiments() {
		m[exp.ID] = sync.OnceValues(func() (*Table, error) { return exp.Run(TinyConfig()) })
	}
	return m
}()

func tinyTable(t *testing.T, id string) *Table {
	t.Helper()
	table, err := tinyTables[id]()
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	return table
}

// TestAllExperimentsRunTiny smoke-tests every experiment end to end on the
// tiny configuration; the headline shapes are checked by the tests below.
func TestAllExperimentsRunTiny(t *testing.T) {
	for _, exp := range Experiments() {
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			table := tinyTable(t, exp.ID)
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
	table := tinyTable(t, "fig9")
	for i := range table.Rows {
		if sp := cell(t, table, i, "speedup"); sp <= 1.0 {
			t.Errorf("%s: whole-job reuse speedup %.2f <= 1", table.Rows[i][0], sp)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	table := tinyTable(t, "fig10")
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
	table := tinyTable(t, "fig12")
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
	table := tinyTable(t, "fig13")
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
	table := tinyTable(t, "table1")
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
	table := tinyTable(t, "fig16")
	// As more fields are projected (more data retained), overhead must not
	// fall and speedup must not rise.
	// Tiny-scale runs are noisy (fixed costs dominate); allow small dips.
	// At the default scale (`restore-bench -exp fig16`) the trend is strict.
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
	table := tinyTable(t, "fig17")
	first := len(table.Rows) - 1
	if sp0, spN := cell(t, table, 0, "speedup"), cell(t, table, first, "speedup"); sp0 < spN {
		t.Errorf("QF speedup should fall with selectivity: %.2f (0.5%%) < %.2f (60%%)", sp0, spN)
	}
	if ov0, ovN := cell(t, table, 0, "overhead"), cell(t, table, first, "overhead"); ov0 > ovN {
		t.Errorf("QF overhead should rise with selectivity: %.2f (0.5%%) > %.2f (60%%)", ov0, ovN)
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

// tinyGolden holds every experiment's Table.String() at TinyConfig, in
// Experiments() order, each followed by a blank line. The tables run on
// simulated time and byte counts, so they repeat exactly; the golden pins
// that installing one generated instance into many systems computes what
// generating the instance into each system did.
const tinyGolden = "testdata/tiny_tables.golden"

func TestTinyTablesGolden(t *testing.T) {
	var sb strings.Builder
	for _, exp := range Experiments() {
		sb.WriteString(tinyTable(t, exp.ID).String())
		sb.WriteString("\n")
	}
	want, err := os.ReadFile(tinyGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("tables differ from %s:\n%s", tinyGolden, got)
	}
}
