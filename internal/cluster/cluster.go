// Package cluster models the execution time of MapReduce jobs on the paper's
// 15-node Hadoop cluster (one master plus 14 workers, 4 map and 2 reduce
// slots each). The MapReduce engine in internal/mapred really executes jobs
// over real tuples; this package converts the engine's byte/record counters
// into simulated wall-clock time using the paper's cost structure:
//
//	ET(Job)    = Tload + Σ ET(OPi) + Tsort + Tstore          (Equation 2)
//	Ttotal(Jn) = ET(Jn) + max over dependencies Ttotal(Ji)   (Equation 1)
//
// Tasks are scheduled in waves over the available slots, so a job reading
// 150 GB runs ~2400 map tasks in ~43 waves while a job reading a 3 GB stored
// sub-job output finishes in one wave — which is exactly the mechanism behind
// the paper's reuse speedups.
//
// A ScaleFactor extrapolates the laptop-sized test data to the paper's
// 15 GB / 150 GB instances: all byte counters are multiplied by it before
// costing. Execution (and therefore correctness) is unaffected.
package cluster

import (
	"fmt"
	"time"
)

// Config describes the simulated cluster and its cost parameters. Bandwidth
// values are per-slot effective throughputs in MB/s; they were calibrated so
// the no-reuse PigMix queries land in the paper's "minutes on Hadoop" range
// (the no-reuse column of `restore-bench -exp fig9`).
type Config struct {
	Workers              int   // worker nodes running tasks
	MapSlotsPerWorker    int   // concurrent map tasks per worker
	ReduceSlotsPerWorker int   // concurrent reduce tasks per worker
	SplitSize            int64 // bytes per map task (HDFS block)
	Replication          int   // DFS replication factor for writes

	DiskReadMBps  float64 // per-slot read bandwidth
	DiskWriteMBps float64 // per-slot write bandwidth (before replication)
	NetworkMBps   float64 // per-node shuffle bandwidth
	CPUMBps       float64 // per-slot map pipeline rate (decode + evaluate)
	// ReduceCPUMBps is the per-slot reduce pipeline rate. Reducers stream
	// pre-sorted, pre-decoded runs through simple fold logic, so they move
	// bytes considerably faster than map pipelines.
	ReduceCPUMBps float64
	SortMBps      float64 // per-slot sort/merge rate during shuffle

	JobStartup  time.Duration // job setup/teardown (JobTracker overhead)
	TaskStartup time.Duration // per-task JVM/scheduling overhead
	// StoreCommitTime is the fixed per-job cost of each *extra* output the
	// job writes (ReStore-injected stores): output-committer renames,
	// NameNode metadata operations, and commit-protocol serialization.
	// Being size-independent, it is why the paper measures HIGHER
	// materialization overhead on the 15 GB instance than on 150 GB
	// (Figure 11): the same fixed cost lands on a much shorter job.
	StoreCommitTime time.Duration

	BytesPerReducer int64 // sizing rule for the number of reduce tasks

	// ScaleFactor multiplies all byte counters before costing, mapping the
	// real (small) test data onto the paper's data sizes. 1 = no scaling.
	ScaleFactor float64
}

// Default returns the paper's cluster: 14 workers with 4 map + 2 reduce
// slots each, 64 MB splits, 3-way replication, and throughputs calibrated to
// 2006-era Opteron/SCSI hardware.
func Default() *Config {
	return &Config{
		Workers:              14,
		MapSlotsPerWorker:    4,
		ReduceSlotsPerWorker: 2,
		SplitSize:            64 << 20,
		Replication:          3,
		DiskReadMBps:         30,
		DiskWriteMBps:        25,
		NetworkMBps:          40,
		CPUMBps:              8,
		ReduceCPUMBps:        20,
		SortMBps:             20,
		JobStartup:           20 * time.Second,
		TaskStartup:          2 * time.Second,
		StoreCommitTime:      45 * time.Second,
		BytesPerReducer:      256 << 20,
		ScaleFactor:          1,
	}
}

// Validate rejects nonsensical configurations.
func (c *Config) Validate() error {
	if c.Workers < 1 || c.MapSlotsPerWorker < 1 || c.ReduceSlotsPerWorker < 1 {
		return fmt.Errorf("cluster: need at least one worker and one slot of each kind")
	}
	if c.SplitSize < 1 || c.BytesPerReducer < 1 {
		return fmt.Errorf("cluster: split size and bytes-per-reducer must be positive")
	}
	if c.DiskReadMBps <= 0 || c.DiskWriteMBps <= 0 || c.NetworkMBps <= 0 || c.CPUMBps <= 0 || c.ReduceCPUMBps <= 0 || c.SortMBps <= 0 {
		return fmt.Errorf("cluster: all bandwidths must be positive")
	}
	if c.Replication < 1 {
		return fmt.Errorf("cluster: replication must be >= 1")
	}
	if c.ScaleFactor <= 0 {
		return fmt.Errorf("cluster: scale factor must be positive")
	}
	return nil
}

// MapSlots returns the cluster-wide number of concurrent map tasks.
func (c *Config) MapSlots() int { return c.Workers * c.MapSlotsPerWorker }

// ReduceSlots returns the cluster-wide number of concurrent reduce tasks.
func (c *Config) ReduceSlots() int { return c.Workers * c.ReduceSlotsPerWorker }

// JobStats carries the real (unscaled) execution counters of one MapReduce
// job, as measured by the engine.
type JobStats struct {
	// InputBytes is the total bytes loaded from the DFS by map tasks.
	InputBytes int64
	// ShuffleBytes is the map-output bytes sorted and moved to reducers
	// (zero for map-only jobs).
	ShuffleBytes int64
	// OutputBytes is the bytes written by the job's terminal Store(s).
	OutputBytes int64
	// MapStoreBytes / ReduceStoreBytes are the bytes written by Store
	// operators ReStore injected into the map / reduce phase to
	// materialize sub-jobs. They add write cost to the respective phase.
	MapStoreBytes    int64
	ReduceStoreBytes int64
	// InjectedStores counts the extra Store operators ReStore added; each
	// one pays the fixed StoreCommitTime.
	InjectedStores int
	// HasReduce distinguishes map-only jobs.
	HasReduce bool
}

// Times is the simulated timing breakdown of one job.
type Times struct {
	Map     time.Duration
	Shuffle time.Duration
	Reduce  time.Duration
	Total   time.Duration

	MapTasks    int
	MapWaves    int
	ReduceTasks int
	ReduceWaves int

	MapTaskAvg    time.Duration
	ReduceTaskAvg time.Duration
}

func (c *Config) scale(b int64) float64 { return float64(b) * c.ScaleFactor }

// seconds converts (bytes, MB/s) to seconds.
func seconds(bytes float64, mbps float64) float64 {
	return bytes / (mbps * (1 << 20))
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 1
	}
	return (a + b - 1) / b
}

// Simulate computes the wall-clock time of one job under Equation 2 with
// wave-based task scheduling.
func (c *Config) Simulate(s JobStats) Times {
	var t Times
	in := c.scale(s.InputBytes)
	shuffle := c.scale(s.ShuffleBytes)
	out := c.scale(s.OutputBytes)
	mapStore := c.scale(s.MapStoreBytes)
	reduceStore := c.scale(s.ReduceStoreBytes)

	// --- Map phase ---
	t.MapTasks = int(ceilDiv(int64(in), c.SplitSize))
	if t.MapTasks < 1 {
		t.MapTasks = 1
	}
	t.MapWaves = (t.MapTasks + c.MapSlots() - 1) / c.MapSlots()
	perMapIn := in / float64(t.MapTasks)
	// Map-side writes: shuffle spill (unreplicated local disk), plus the
	// job output when map-only, plus injected sub-job stores (replicated).
	perMapSpill := shuffle / float64(t.MapTasks)
	perMapStore := mapStore / float64(t.MapTasks) * float64(c.Replication)
	if !s.HasReduce {
		perMapStore += out / float64(t.MapTasks) * float64(c.Replication)
	}
	mapTaskSec := c.TaskStartup.Seconds() +
		seconds(perMapIn, c.DiskReadMBps) + // Tload
		seconds(perMapIn, c.CPUMBps) + // Σ ET(OPi), map side
		seconds(perMapSpill, c.DiskWriteMBps) +
		seconds(perMapStore, c.DiskWriteMBps) // Tstore contributions
	t.MapTaskAvg = durSec(mapTaskSec)
	t.Map = durSec(mapTaskSec * float64(t.MapWaves))

	commit := time.Duration(s.InjectedStores) * c.StoreCommitTime
	if !s.HasReduce {
		t.Total = c.JobStartup + t.Map + commit
		return t
	}

	// --- Shuffle / sort (Tsort) ---
	t.ReduceTasks = int(ceilDiv(int64(shuffle), c.BytesPerReducer))
	if t.ReduceTasks < 1 {
		t.ReduceTasks = 1
	}
	if max := c.ReduceSlots(); t.ReduceTasks > max {
		t.ReduceTasks = max
	}
	t.ReduceWaves = (t.ReduceTasks + c.ReduceSlots() - 1) / c.ReduceSlots()
	aggNet := c.NetworkMBps * float64(c.Workers)
	sortSec := seconds(shuffle, aggNet) +
		seconds(shuffle/float64(t.ReduceTasks), c.SortMBps)
	t.Shuffle = durSec(sortSec)

	// --- Reduce phase ---
	perRedIn := shuffle / float64(t.ReduceTasks)
	perRedOut := (out + reduceStore) / float64(t.ReduceTasks) * float64(c.Replication)
	redTaskSec := c.TaskStartup.Seconds() +
		seconds(perRedIn, c.ReduceCPUMBps) + // Σ ET(OPi), reduce side
		seconds(perRedOut, c.DiskWriteMBps) // Tstore
	t.ReduceTaskAvg = durSec(redTaskSec)
	t.Reduce = durSec(redTaskSec * float64(t.ReduceWaves))

	t.Total = c.JobStartup + t.Map + t.Shuffle + t.Reduce + commit
	return t
}

func durSec(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// CriticalPath implements Equation 1 over a workflow DAG: the completion
// time of each job is its own duration plus the maximum completion time of
// its dependencies; the workflow time is the maximum over all jobs. deps maps
// job id -> dependency ids; durations maps job id -> simulated duration.
func CriticalPath(durations map[string]time.Duration, deps map[string][]string) (time.Duration, error) {
	memo := make(map[string]time.Duration, len(durations))
	visiting := make(map[string]bool)
	var total func(id string) (time.Duration, error)
	total = func(id string) (time.Duration, error) {
		if d, ok := memo[id]; ok {
			return d, nil
		}
		if visiting[id] {
			return 0, fmt.Errorf("cluster: dependency cycle at job %q", id)
		}
		visiting[id] = true
		defer delete(visiting, id)
		d, ok := durations[id]
		if !ok {
			return 0, fmt.Errorf("cluster: unknown job %q in dependency graph", id)
		}
		var maxDep time.Duration
		for _, dep := range deps[id] {
			dd, err := total(dep)
			if err != nil {
				return 0, err
			}
			if dd > maxDep {
				maxDep = dd
			}
		}
		memo[id] = d + maxDep
		return memo[id], nil
	}
	var max time.Duration
	for id := range durations {
		d, err := total(id)
		if err != nil {
			return 0, err
		}
		if d > max {
			max = d
		}
	}
	return max, nil
}
