// Command benchmark is the repository's un-emulated end-to-end benchmark: it
// drives the real internal/server daemon in-process over loopback HTTP with
// every sleep knob at zero, one workload per process, and prints every
// metric BENCHMARK.json names. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	segments int
	tiny     bool
	classes  bool
	outDir   string
	tmpDir   string
}

func main() { os.Exit(mainExit()) }

// mainExit is main proper; it returns the exit code so that deferred calls
// (the idle spinners' stop) run before the process exits.
func mainExit() int {
	var o options
	var traceN, repeat, idleSpin int
	var sameSeed, printSpec bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: pigmix_cold, pigmix_reuse, pigmix_hot or churn_durable")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", float64(runSeconds), "measured time: whole segments of the fixed op sequence run until it is used up")
	flag.IntVar(&traceN, "trace", 0, "1 runs the traced passes and prints the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&o.segments, "segments", 0, "run exactly this many segments per pass instead of filling -seconds (exact op counts)")
	flag.BoolVar(&o.tiny, "tiny", false, "self-test scale: small inputs, few ops")
	flag.BoolVar(&o.classes, "classes", false, "also print per-script p50/p90 and share of ops")
	flag.IntVar(&repeat, "repeat", 0, "self-noise report: run the workload this many times in child processes and print median, quartiles and spread per metric")
	flag.BoolVar(&sameSeed, "same-seed", false, "with -repeat: reuse -seed for every run and require the count metrics to repeat bit for bit")
	flag.BoolVar(&printSpec, "print-spec", false, "print BENCHMARK.json as generated from this program's metric tables and exit")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory trace files are written to")
	flag.StringVar(&o.tmpDir, "tmp", "", "scratch directory for state dirs (default: the system temp dir)")
	flag.IntVar(&idleSpin, "idle-spin", -1, "internal: run as the idle spinner of this CPU (see awake.go)")
	flag.Parse()
	o.trace = traceN != 0

	if idleSpin >= 0 {
		return spinIdle(idleSpin)
	}
	if printSpec {
		fmt.Println(specJSON())
		return 0
	}
	if findWorkload(o.workload) == nil {
		return errorf("unknown -workload %q (want one of %v)", o.workload, workloadNames())
	}
	if repeat > 0 {
		if err := noiseReport(o, repeat, sameSeed); err != nil {
			return errorf("%v", err)
		}
		return 0
	}
	spinners, stop := keepAwake()
	defer stop()
	res, err := run(o)
	if err != nil {
		return errorf("%s: %v", o.workload, err)
	}
	res.Info.Host.IdleSpinners = spinners
	if o.classes {
		res.printClasses(os.Stdout)
	}
	info, _ := json.Marshal(res.Info)
	fmt.Printf("%s\n", info)
	line, err := json.Marshal(res.outcome)
	if err != nil {
		return errorf("%v", err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return errorf("%s: %d of %d checks failed; first: %s", o.workload, res.Failed, res.Attempted, res.Info.FirstFailure)
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line: the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the line before the result line: what the run was and what the
// host looked like while it ran.
type runInfo struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	Ops        int      `json:"ops"`
	Queries    int      `json:"queries"`
	Segments   int      `json:"segments"`
	MeasuredS  float64  `json:"measuredSeconds"`
	SegmentQPS []string `json:"segmentOpsPerSecond"`
	P90Samples int      `json:"latencyP90Samples"`
	// PeakRSSReset: the kernel restarted VmHWM after set-up, so peak_rss_mb
	// is the measured phase's own; false: it covers the whole process.
	PeakRSSReset  bool             `json:"peakRssResetAfterSetup"`
	SetupS        []string         `json:"setupSeconds"`
	WALSync       string           `json:"walFlushPolicy"`
	CountsRepeat  bool             `json:"countsRepeatEverySegment"`
	Host          hostInfo         `json:"host"`
	FirstFailure  string           `json:"firstFailure,omitempty"`
	TraceFile     string           `json:"traceFile,omitempty"`
	ExactCounters map[string]int64 `json:"exactCounters,omitempty"`
}

type result struct {
	outcome
	Info    runInfo
	classes []classRow
}

// conclude turns the run's tally into the result line's verdict.
func (r *result) conclude(t tally) {
	r.Correct, r.Attempted, r.Failed = t.failed == 0, t.attempted, t.failed
	r.Info.FirstFailure = t.first
}

// run executes one workload once in this process.
func run(o options) (*result, error) {
	def := findWorkload(o.workload)
	sz := fullSizes(o.seed)
	if o.tiny {
		sz = tinySizes(o.seed)
	}
	tmp, err := os.MkdirTemp(o.tmpDir, "restore-benchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{sz: sz, seed: o.seed, tmp: tmp}
	if o.trace {
		return runTraced(o, def, e, limit{o.seconds * tracedShare, o.segments})
	}

	in, setups, err := setUp(def, e, sz.setupReps)
	if err != nil {
		return nil, err
	}
	defer in.close()
	m, err := measure(in, limit{o.seconds, o.segments})
	if err != nil {
		return nil, err
	}
	checks := m.tally
	if in.finish != nil {
		t, err := in.finish()
		if err != nil {
			return nil, err
		}
		checks.add(t)
	}
	res := &result{classes: classTable(in.classes, m.samples), Info: newRunInfo(o, in, m, setups)}
	res.Metrics = endToEnd(m, setups)
	res.conclude(checks)
	return res, in.close()
}

// setUp runs the workload's set-up reps times (setup_s is the median), keeps
// the last instance, and then runs the oracle, untimed.
func setUp(def *workloadDef, e *env, reps int) (*instance, []time.Duration, error) {
	var in *instance
	var times []time.Duration
	for i := 0; i < reps; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = def.setup(e); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0))
	}
	if err := in.verify(); err != nil {
		in.close()
		return nil, nil, fmt.Errorf("oracle check: %w", err)
	}
	return in, times, nil
}

func newRunInfo(o options, in *instance, m *measured, setups []time.Duration) runInfo {
	info := runInfo{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Ops: m.ops(), Queries: len(m.queryLatenciesMS()), Segments: m.segments,
		MeasuredS: m.wall.Seconds(), WALSync: in.walSync, PeakRSSReset: m.rssResetOK,
		CountsRepeat: m.countsRepeat, Host: newHostInfo(m.calib),
	}
	info.P90Samples = info.Queries
	for _, q := range m.segQPS {
		info.SegmentQPS = append(info.SegmentQPS, fmt.Sprintf("%.1f", q))
	}
	for _, d := range setups {
		info.SetupS = append(info.SetupS, fmt.Sprintf("%.3f", d.Seconds()))
	}
	if in.exactCounts {
		info.ExactCounters = m.counts.exact()
	}
	return info
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(m *measured, setups []time.Duration) map[string]metric {
	lat := m.queryLatenciesMS()
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	vals := map[string]float64{
		"setup_s":            median(secs),
		"throughput_qps":     m.qps(),
		"latency_p50_ms":     quantile(lat, 0.50),
		"latency_p90_ms":     quantile(lat, 0.90),
		"cpu_ms_per_query":   ratio(ms(m.cpu), float64(m.ops())),
		"alloc_mb_per_query": ratio(float64(m.allocBytes)/mb, float64(m.ops())),
		"peak_rss_mb":        m.peakRSSMB,
		"stored_bytes_ratio": ratio(m.storedRatioSum, float64(m.segments)),
		"reuse_hit_ratio":    m.per(cReused, cQueries),
	}
	return withUnits(vals, endToEndMetrics)
}

// withUnits attaches each defined metric's unit; a metric the pass had
// nothing to measure for reads 0.
func withUnits(vals map[string]float64, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{vals[d.Name], d.Unit}
	}
	return out
}

// ---- query classes ----

type classRow struct {
	name     string
	n        int
	share    float64
	p50, p90 float64
}

// classTable summarizes the query samples per script class, plus the mix.
func classTable(names []string, samples []sample) []classRow {
	by := make([][]time.Duration, len(names))
	var all []time.Duration
	for _, s := range samples {
		if s.kind == opQuery {
			by[s.class] = append(by[s.class], s.d)
			all = append(all, s.d)
		}
	}
	row := func(name string, ds []time.Duration) classRow {
		xs := durationsMS(ds)
		return classRow{name, len(ds), ratio(float64(len(ds)), float64(len(all))), quantile(xs, 0.5), quantile(xs, 0.9)}
	}
	rows := []classRow{}
	for i, n := range names {
		rows = append(rows, row(n, by[i]))
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].p50 < rows[j].p50 })
	return append(rows, row("(mix)", all))
}

func (r *result) printClasses(w *os.File) {
	fmt.Fprintf(w, "%-18s %7s %7s %10s %10s\n", "class", "ops", "share", "p50 ms", "p90 ms")
	for _, c := range r.classes {
		fmt.Fprintf(w, "%-18s %7d %6.1f%% %10.3f %10.3f\n", c.name, c.n, 100*c.share, c.p50, c.p90)
	}
}
