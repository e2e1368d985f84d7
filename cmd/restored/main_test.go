package main

import (
	"flag"
	"runtime"
	"testing"

	restore "repro"
)

// TestEngineFlagWiring pins that the engine tuning flags reach the
// MapReduce engine: -map-parallelism, -reduce-tasks, and
// -reduce-parallelism parse with main's defaults and land on the
// corresponding Engine fields through engineOptions.
func TestEngineFlagWiring(t *testing.T) {
	cases := []struct {
		name                             string
		args                             []string
		wantMapPar, wantTasks, wantRdPar int
	}{
		{"defaults", nil, 0, restore.DefaultReduceTasks, 0},
		{"explicit", []string{"-map-parallelism", "3", "-reduce-tasks", "7", "-reduce-parallelism", "2"}, 3, 7, 2},
		{"reduce only", []string{"-reduce-tasks", "16"}, 0, 16, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("restored", flag.ContinueOnError)
			mapPar := fs.Int("map-parallelism", 0, "")
			reduceTasks := fs.Int("reduce-tasks", restore.DefaultReduceTasks, "")
			reducePar := fs.Int("reduce-parallelism", 0, "")
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse %v: %v", tc.args, err)
			}
			sys := restore.New(engineOptions(*mapPar, *reduceTasks, *reducePar)...)
			eng := sys.Engine()
			if eng.MapParallelism != tc.wantMapPar {
				t.Errorf("MapParallelism = %d, want %d", eng.MapParallelism, tc.wantMapPar)
			}
			if eng.ReduceTasks != tc.wantTasks {
				t.Errorf("ReduceTasks = %d, want %d", eng.ReduceTasks, tc.wantTasks)
			}
			if eng.ReduceParallelism != tc.wantRdPar {
				t.Errorf("ReduceParallelism = %d, want %d", eng.ReduceParallelism, tc.wantRdPar)
			}
		})
	}
	// The 0 defaults mean GOMAXPROCS at run time, resolved inside the
	// engine's phases; the wiring must pass them through unresolved so a
	// later GOMAXPROCS change takes effect per job.
	if n := runtime.GOMAXPROCS(0); n < 1 {
		t.Fatalf("GOMAXPROCS = %d", n)
	}
}
