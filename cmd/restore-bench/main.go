// Command restore-bench regenerates the tables and figures of the ReStore
// paper's evaluation (§7) and the two ablations on the simulated cluster's
// cost model. Every number it prints is simulated time or a byte count; how
// fast the code itself runs is measured by `bash benchmark/run.sh`.
//
// Usage:
//
//	restore-bench              # run every experiment
//	restore-bench -exp fig10   # run one experiment (comma-separate several)
//	restore-bench -list        # list experiment IDs
//	restore-bench -tiny        # use the fast test-sized configuration
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		expID = flag.String("exp", "", "experiment ID(s) to run, comma-separated (default: all)")
		list  = flag.Bool("list", false, "list experiment IDs and exit")
		tiny  = flag.Bool("tiny", false, "use the tiny test configuration")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Desc)
		}
		return
	}

	cfg := bench.DefaultConfig()
	if *tiny {
		cfg = bench.TinyConfig()
	}

	run := func(e bench.Experiment) {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "restore-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(table.String())
		fmt.Printf("  (experiment wall time: %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *expID != "" {
		for _, id := range strings.Split(*expID, ",") {
			e, err := bench.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "restore-bench:", err)
				os.Exit(1)
			}
			run(e)
		}
	} else {
		for _, e := range bench.Experiments() {
			run(e)
		}
	}

}
