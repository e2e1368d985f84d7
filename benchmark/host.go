package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the user+system CPU time this process has consumed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc returns the cumulative heap bytes allocated by this process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// procStatusKB reads one "Key:  N kB" line of /proc/self/status (0 when the
// file or key is missing, as on non-Linux hosts).
func procStatusKB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0
		}
		n, _ := strconv.ParseFloat(f[0], 64)
		return n
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 { return procStatusKB("VmHWM") / 1024 }

// releaseSetupHeap returns the heap that set-up and the oracle freed to the
// OS, so that it does not linger in the first measured segments' marks.
func releaseSetupHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// restartPeakRSS restarts the kernel's high-water mark at the current
// resident set and reports whether the kernel did. Where it refuses (no
// /proc/self/clear_refs) the mark keeps covering the whole process.
func restartPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// loadAvg1m is the host's 1-minute load average (0 when unreadable).
func loadAvg1m() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	n, _ := strconv.ParseFloat(f[0], 64)
	return n
}

// calibSink keeps the canary's results live so the compiler cannot drop it.
var calibSink int

// calibKernel is the host canary: a fixed stdlib-only sort + map + format
// workload timed between segments. It touches none of the program's code, so
// a change in its time means the host moved, not the program.
func calibKernel() time.Duration {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(7))
	xs := make([]int, 40_000)
	for i := range xs {
		xs[i] = rng.Intn(1 << 30)
	}
	sort.Ints(xs)
	m := make(map[int]int, 8_000)
	for i, x := range xs {
		m[x%8_000] += i
	}
	n := 0
	for i := 0; i < 4_000; i++ {
		n += len(strconv.Itoa(xs[i*7] + m[i]))
	}
	calibSink += n
	return time.Since(t0)
}

// quantile returns the q-quantile of sorted xs by nearest rank (q in [0,1]).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method the acceptance check uses): the three cut points of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts a sample of durations to sorted milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, 0 when b is 0 (a metric whose denominator never happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mb = 1 << 20

// hostInfo is recorded in every run's info line so a result can be judged
// against the machine state it was taken on.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	LoadAvg1m  float64 `json:"loadavg1m"`
	CalibP50MS float64 `json:"calibMsP50"`
	CalibIQRMS float64 `json:"calibMsIqr"`
	// IdleSpinners is how many SCHED_IDLE spinner processes kept the host's
	// CPUs from halting during the run (awake.go).
	IdleSpinners int `json:"idleSpinners"`
}

func newHostInfo(calib []time.Duration) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadAvg1m:  loadAvg1m(),
	}
	if len(calib) > 0 {
		xs := durationsMS(calib)
		q1, q2, q3 := quartiles(xs)
		h.CalibP50MS, h.CalibIQRMS = q2, q3-q1
	}
	return h
}

// errorf reports why the command failed and returns its exit code.
func errorf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return 1
}
