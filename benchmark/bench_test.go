package main

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// The self-test is count-only: tiny inputs, a fixed number of segments, no
// wall-clock or allocation thresholds.

func tinyOptions(t *testing.T, workload string, seed int64, trace bool) options {
	dir := t.TempDir()
	return options{workload: workload, seed: seed, seconds: 1, segments: 2, tiny: true, trace: trace, outDir: dir, tmpDir: dir}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := specJSON() + "\n"; got != string(want) {
		t.Fatalf("BENCHMARK.json is stale: regenerate it with `go run . -print-spec > ../BENCHMARK.json`")
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.name, len(w.why))
		}
	}
}

// checkMetrics requires exactly the defined metrics, each with its unit.
func checkMetrics(t *testing.T, got map[string]metric, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s is not emitted", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/end_to_end"
			defs := endToEndMetrics
			if trace {
				name, defs = w.name+"/traced", perLayerMetrics
			}
			t.Run(name, func(t *testing.T) {
				first, err := run(tinyOptions(t, w.name, 1, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !first.Correct || first.Attempted < 1 {
					t.Fatalf("%d of %d checks failed: %s", first.Failed, first.Attempted, first.Info.FirstFailure)
				}
				if first.Attempted > 450 {
					t.Errorf("self-test scale attempted %d ops, want a few dozen per pass", first.Attempted)
				}
				checkMetrics(t, first.Metrics, defs)
				if !first.Info.CountsRepeat {
					t.Errorf("a segment's counts differ from the first segment's")
				}
				if trace {
					if _, err := os.Stat(first.Info.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
				// Same seed: the count metrics of a 1-client workload repeat
				// bit for bit.
				if w.name == "pigmix_cold" || w.name == "pigmix_reuse" {
					again, err := run(tinyOptions(t, w.name, 1, trace))
					if err != nil {
						t.Fatal(err)
					}
					for _, name := range exactMetrics {
						a, ok := first.Metrics[name]
						if b := again.Metrics[name]; ok && a.Value != b.Value {
							t.Errorf("same seed, %s: %v then %v", name, a.Value, b.Value)
						}
					}
				}
			})
		}
	}
}

// churn_durable is the one workload where the seed decides which data set an
// op names (the popularity ranks are dealt out by seed): which data set the
// first query reads, and so which input the kernels of the traced run decode,
// differs from seed to seed.
func TestTracedChurnAcrossSeeds(t *testing.T) {
	for seed := int64(2); seed <= 4; seed++ {
		res, err := run(tinyOptions(t, "churn_durable", seed, true))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Correct {
			t.Errorf("seed %d: %d of %d checks failed: %s", seed, res.Failed, res.Attempted, res.Info.FirstFailure)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	gen := func(seed int64) []byte {
		m, err := generatePigmix(tinySizes(seed).pigmix)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m.files {
			if f.path == "pigmix/page_views" {
				return f.parts[0].data
			}
		}
		t.Fatal("no page_views in the generated master")
		return nil
	}
	if !bytes.Equal(gen(1), gen(1)) {
		t.Error("the same seed generated different page_views")
	}
	if bytes.Equal(gen(1), gen(2)) {
		t.Error("seeds 1 and 2 generated the same page_views")
	}
	churn := func(seed int64) string {
		return strings.Join(genChurnDataset(rand.New(rand.NewSource(seed)), 50).lines, "\n")
	}
	if churn(1) != churn(1) || churn(1) == churn(2) {
		t.Error("churn data sets do not follow the seed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestBudgetSplitsAddUp(t *testing.T) {
	tr := newTracer()
	tr.armed.Store(true)
	add := func(name string, parent int, start, end int64) int {
		id := tr.begin(name, parent, 7)
		tr.spans[id].Start, tr.spans[id].End = start, end
		return id
	}
	c := add(spanClient, -1, 0, 100)
	h := add(spanHandler, c, 10, 90)
	w := add(spanWorkflow, h, 20, 80)
	p := add(spanMapPhase, w, 20, 60)
	add(spanMapTask, p, 20, 50) // two tasks in parallel cover 20..60
	add(spanMapTask, p, 30, 60)
	add(spanReducePhase, w, 60, 78)
	b := tr.budgets()[7]
	var total int64
	for _, d := range b {
		total += int64(d)
	}
	if total != 100 {
		t.Errorf("self times add up to %d, want the client round trip (100): %v", total, b)
	}
	if b[spanClient] != 20 || b[spanHandler] != 20 || b[spanWorkflow] != 2 || b[spanMapTask] != 40 || b[spanReducePhase] != 18 {
		t.Errorf("unexpected split: %v", b)
	}
}
