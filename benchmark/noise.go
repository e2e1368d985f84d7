package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// noiseReport is -repeat N: it runs the workload N times, each in a child
// process of this same binary (so peak_rss_mb and the heap start fresh), and
// prints per metric the median, the quartiles and (Q3-Q1)/median — the
// spread the acceptance check computes — flagging any end-to-end metric
// whose spread exceeds half its bound. With sameSeed every run uses -seed and
// the exact count metrics must repeat bit for bit; otherwise run i uses
// seed+i, as the driver does.
func noiseReport(o options, n int, sameSeed bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runs := make([]outcome, 0, n)
	for i := 0; i < n; i++ {
		seed := o.seed
		if !sameSeed {
			seed += int64(i)
		}
		args := []string{
			"-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-segments", strconv.Itoa(o.segments), "-out", o.outDir, "-tmp", o.tmpDir,
		}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.tiny {
			args = append(args, "-tiny")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) > 0 {
				last = append(last[:0], sc.Bytes()...)
			}
		}
		var oc outcome
		if err := json.Unmarshal(last, &oc); err != nil {
			return fmt.Errorf("run %d: result line: %w", i, err)
		}
		if !oc.Correct {
			return fmt.Errorf("run %d (seed %d): %d of %d checks failed", i, seed, oc.Failed, oc.Attempted)
		}
		fmt.Fprintf(os.Stderr, "run %d/%d seed %d done\n", i+1, n, seed)
		runs = append(runs, oc)
	}

	defs := endToEndMetrics
	if o.trace {
		defs = perLayerMetrics
	}
	fmt.Printf("%s, %d runs, %s, -seconds %g\n", o.workload, n, map[bool]string{true: "same seed", false: "seeds seed..seed+n-1"}[sameSeed], o.seconds)
	fmt.Printf("%-36s %-6s %12s %12s %12s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	flagged := 0
	for _, d := range defs {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.Metrics[d.Name].Value
		}
		q1, q2, q3 := quartiles(xs)
		spread := ratio(q3-q1, q2)
		mark := ""
		if d.Bound > 0 && d.Name != "setup_s" && spread > d.Bound/2 {
			mark = "  <-- spread above half the bound"
			flagged++
		}
		bound := ""
		if d.Bound > 0 {
			bound = strconv.FormatFloat(d.Bound, 'g', -1, 64)
		}
		fmt.Printf("%-36s %-6s %12.5g %12.5g %12.5g %7.2f%% %6s%s\n", d.Name, d.Unit, q1, q2, q3, 100*spread, bound, mark)
	}
	if flagged > 0 {
		fmt.Printf("%d metric(s) flagged: lengthen the run or change the mix; do not widen the bound\n", flagged)
	}
	if sameSeed {
		for _, name := range exactMetrics {
			for i := 1; i < len(runs); i++ {
				a, okA := runs[0].Metrics[name]
				b, okB := runs[i].Metrics[name]
				if okA && okB && a.Value != b.Value {
					return fmt.Errorf("count metric %s is not bit-identical between same-seed runs: %v vs %v", name, a.Value, b.Value)
				}
			}
		}
		fmt.Println("count metrics repeat bit for bit across the same-seed runs")
	}
	return nil
}
