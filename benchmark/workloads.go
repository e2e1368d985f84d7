package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	restore "repro"
	"repro/internal/pigmix"
	"repro/internal/server"
)

// env is what a set-up needs besides the workload's own definition.
type env struct {
	sz   sizes
	seed int64
	tr   *tracer // non-nil: daemons are started traced
	tmp  string  // scratch directory for state dirs
}

// instance is one set-up workload, ready for its measured phase.
type instance struct {
	classes  []string
	nClients int
	d        *daemon
	master   *master
	// inputBytes is the user input the stored bytes are compared with.
	inputBytes func() int64
	// segment returns every client's ops for measured segment seg. On
	// pigmix_cold it first replaces the daemon with a fresh one (untimed).
	segment func(seg int) ([][]*op, error)
	// verify runs the oracle, untimed, after set-up: it checks what warm-up
	// returned and gives every op the reply it must produce.
	verify func() error
	// warm is the rows each warm-up script returned, and oracleScripts what
	// plain Pig must run to judge them (PigMix workloads).
	warm          map[string][]string
	oracleScripts []oracleScript
	// exactCounts: every segment must repeat the first one's count vector.
	exactCounts bool
	// finish runs the workload's untimed post-run checks.
	finish func() (tally, error)
	// invariant checks, after the measured phase, that the workload kept to
	// the path it exists to measure; a non-empty string fails the run.
	invariant func(m *measured) string
	// walSync is the WAL flush policy, recorded in the run info.
	walSync string
	// churn is the churn_durable state (nil on the PigMix workloads).
	churn *churnState
}

type oracleScript struct{ name, script, out string }

func (in *instance) close() error {
	if in.d == nil {
		return nil
	}
	d := in.d
	in.d = nil
	return d.close()
}

type workloadDef struct {
	name  string
	why   string
	setup func(*env) (*instance, error)
}

var workloads = []workloadDef{
	{"pigmix_cold", "PigMix L2-L11 on an empty repository (paper Fig 11): every job runs in full with injected Stores, so mapred/exec/types/dfs do the work and plan cache, hot path and WAL do none", setupCold},
	{"pigmix_reuse", "the nine Sec 7.1 variants against a warm repository, each to a new path (paper Fig 9/10): parse, build, compile, match, rewrite and a small residual job; the page_views scan never runs", setupReuse},
	{"pigmix_hot", "the same nine scripts repeated verbatim by 2 clients with keep-results on: plan-cache hit + stored-result serve, so HTTP/JSON, hot path and row read-back do the work and the engine none", setupHot},
	{"churn_durable", "2 clients, 2048 distinct filter-group-aggregate scripts over 64 small data sets, 5% re-uploads, WAL, size budget, GC, checkpoints: the write side of persist/core/dfs/leases, 8x the plan cache", setupChurn},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pigmixInstance is the part the three PigMix set-ups share: the generated
// master installed into one System behind one daemon.
func pigmixInstance(e *env, extra ...restore.Option) (*instance, error) {
	m, err := generatePigmix(e.sz.pigmix)
	if err != nil {
		return nil, err
	}
	in := &instance{master: m, nClients: 1, warm: make(map[string][]string), walSync: "none (no state dir)"}
	in.inputBytes = func() int64 { return m.bytes }
	if err := in.freshDaemon(e, extra...); err != nil {
		return nil, err
	}
	return in, nil
}

// freshDaemon replaces the instance's daemon with a new System + daemon over
// the same master data and an empty repository.
func (in *instance) freshDaemon(e *env, extra ...restore.Option) error {
	if err := in.close(); err != nil {
		return err
	}
	sys := newSystem(extra...)
	if err := in.master.installInto(sys.FS()); err != nil {
		return err
	}
	d, err := startDaemon(sys, server.Config{}, e.tr)
	if err != nil {
		return err
	}
	in.d = d
	return nil
}

// warmRun submits a script untimed and keeps its rows for the oracle check.
func (in *instance) warmRun(key, script, out string) error {
	rows, err := in.d.queryRows(script, out)
	if err != nil {
		return fmt.Errorf("warm-up %s: %w", key, err)
	}
	in.warm[key] = rows
	return nil
}

// verifyWithOracle runs every distinct script of the workload on plain Pig
// and requires every warm-up reply to equal the oracle's rows as a multiset
// (sameRows). It then calls bind, which builds the measured ops: each op's
// reply must be byte-identical to the rows the daemon returned for the same
// script down the same path in warm-up, which the oracle has just vouched
// for. A warm-up key is the script's name, optionally followed by "/<path>".
func (in *instance) verifyWithOracle(bind func()) func() error {
	return func() error {
		o, err := newOracle(in.master)
		if err != nil {
			return err
		}
		expect := make(map[string][]string, len(in.oracleScripts))
		for _, s := range in.oracleScripts {
			if expect[s.name], err = o.rows(s.script, s.out); err != nil {
				return err
			}
		}
		for key, got := range in.warm {
			name, _, _ := strings.Cut(key, "/")
			want, ok := expect[name]
			if !ok {
				return fmt.Errorf("warm-up %s has no oracle rows", key)
			}
			if err := sameRows(got, want); err != nil {
				return fmt.Errorf("warm-up %s differs from plain Pig: %w", key, err)
			}
		}
		bind()
		return nil
	}
}

// sameRows compares two sorted TSV row sets field by field. Fields must be
// equal as text, except that two numbers may differ by a relative 1e-9: a
// SUM over doubles answered from a stored sub-job adds the same values in a
// different order than plain Pig does.
func sameRows(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		g, w := strings.Split(got[i], "\t"), strings.Split(want[i], "\t")
		if len(g) != len(w) {
			return fmt.Errorf("row %d: %q, want %q", i, got[i], want[i])
		}
		for j := range g {
			if g[j] == w[j] {
				continue
			}
			a, errA := strconv.ParseFloat(g[j], 64)
			b, errB := strconv.ParseFloat(w[j], 64)
			if errA != nil || errB != nil || math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
				return fmt.Errorf("row %d: %q, want %q", i, got[i], want[i])
			}
		}
	}
	return nil
}

func mustQuery(name, out string) string {
	s, err := pigmix.Query(name, out)
	if err != nil {
		panic(err) // names come from pigmix.Names / VariantNames
	}
	return s
}

// ---- pigmix_cold ----

func setupCold(e *env) (*instance, error) {
	in, err := pigmixInstance(e)
	if err != nil {
		return nil, err
	}
	names := pigmix.Names()
	in.classes = names
	in.exactCounts = true
	for _, q := range names {
		out := "out/" + q
		in.oracleScripts = append(in.oracleScripts, oracleScript{q, mustQuery(q, out), out})
		// The untimed warm-up round: same scripts, same order, first daemon.
		if err := in.warmRun(q, mustQuery(q, out), out); err != nil {
			return nil, err
		}
	}
	var ops []*op
	in.verify = in.verifyWithOracle(func() {
		for i, q := range names {
			ops = append(ops, queryOp(i, mustQuery(q, "out/"+q), "out/"+q, rowsTail(in.warm[q])))
		}
	})
	in.segment = func(int) ([][]*op, error) {
		// Every measured round starts on an empty repository.
		if err := in.freshDaemon(e); err != nil {
			return nil, err
		}
		return [][]*op{ops}, nil
	}
	return in, nil
}

// variantWeights is how often each of the nine Sec 7.1 variants appears in
// one round of pigmix_reuse and one client cycle of pigmix_hot. The scripts
// fall into three latency classes on both paths — L11, L11a, L11b, L11c
// (small inputs or small replies), the four L3 variants, and L11d (a 60 000
// row, ~0.9 MB reply) — and with equal weights the mix p50 sat on the boundary
// between the first two and the mix p90 on the boundary below L11d, where a
// few samples changing side move the percentile by a whole class. With these
// weights (4 : 8 : 3 of 15) the p50 falls inside the L3 class and the p90 in
// the middle of L11d's own distribution (README, "Query classes").
var variantWeights = map[string]int{
	"L3": 2, "L3a": 2, "L3b": 2, "L3c": 2,
	"L11": 1, "L11a": 1, "L11b": 1, "L11c": 1, "L11d": 3,
}

// ---- pigmix_reuse ----

func setupReuse(e *env) (*instance, error) {
	in, err := pigmixInstance(e)
	if err != nil {
		return nil, err
	}
	names := pigmix.VariantNames()
	in.classes = names
	in.exactCounts = true
	for _, q := range names {
		out := "out/warm/" + q
		in.oracleScripts = append(in.oracleScripts, oracleScript{q, mustQuery(q, out), out})
		if err := in.warmRun(q, mustQuery(q, out), out); err != nil {
			return nil, err
		}
	}
	// One more untimed pass, now down the reuse path the measured ops take.
	for _, q := range names {
		out := "out/warm2/" + q
		if err := in.warmRun(q+"/reuse", mustQuery(q, out), out); err != nil {
			return nil, err
		}
	}
	// Each op stores to a path no cached plan names: the out/ paths cycle
	// with a period of reusePathCycle rounds, 15 x 24 = 360 distinct texts
	// against a 256-entry LRU plan cache, so the cache, the single-flight
	// group and the hot path miss on every op while the DFS stays bounded
	// (checkReuse fails the run if a single plan-cache hit is counted).
	cycle := e.sz.reusePathCycle
	rounds := make([][]*op, cycle)
	in.verify = in.verifyWithOracle(func() {
		for r := range rounds {
			for i, q := range names {
				for w := 0; w < variantWeights[q]; w++ {
					out := fmt.Sprintf("out/r%02d/%s.%d", r, q, w)
					rounds[r] = append(rounds[r], queryOp(i, mustQuery(q, out), out, rowsTail(in.warm[q+"/reuse"])))
				}
			}
			// Seeded order, the same in every run of this seed.
			rng := rand.New(rand.NewSource(e.seed + int64(r)))
			rng.Shuffle(len(rounds[r]), func(i, j int) { rounds[r][i], rounds[r][j] = rounds[r][j], rounds[r][i] })
		}
	})
	in.invariant = func(m *measured) string {
		switch {
		case m.counts[cPlanCacheHits] != 0:
			return fmt.Sprintf("pigmix_reuse counted %d plan-cache hits; every op must miss", m.counts[cPlanCacheHits])
		case m.per(cReused, cQueries) < 0.99:
			return fmt.Sprintf("pigmix_reuse reused the repository on %d of %d queries, want >= 99%%", m.counts[cReused], m.counts[cQueries])
		}
		return ""
	}
	in.segment = func(seg int) ([][]*op, error) {
		var ops []*op
		for r := seg * e.sz.reuseSegRounds; r < (seg+1)*e.sz.reuseSegRounds; r++ {
			ops = append(ops, rounds[r%cycle]...)
		}
		return [][]*op{ops}, nil
	}
	return in, nil
}

// ---- pigmix_hot ----

// hotWeights is pigmix_hot's cycle (21 ops). On the hot path L11d is one
// 0.9 MB reply costing seven small ones; at pigmix_reuse's weight one of the
// two clients is inside an L11d two thirds of the time, and what the other
// client's small queries then measure is how the host shares two cores. At
// 1 in 21 the p50 and p90 both fall inside the small-reply classes.
var hotWeights = map[string]int{
	"L3": 3, "L3a": 3, "L3b": 3, "L3c": 3,
	"L11": 2, "L11a": 2, "L11b": 2, "L11c": 2, "L11d": 1,
}

func setupHot(e *env) (*instance, error) {
	in, err := pigmixInstance(e, restore.WithRegisterFinalOutputs(true))
	if err != nil {
		return nil, err
	}
	names := pigmix.VariantNames()
	in.classes = names
	in.nClients = 2
	for _, q := range names {
		out := "out/hot/" + q
		in.oracleScripts = append(in.oracleScripts, oracleScript{q, mustQuery(q, out), out})
		if err := in.warmRun(q, mustQuery(q, out), out); err != nil {
			return nil, err
		}
	}
	// The repeat of each script is the first one the hot path serves.
	for _, q := range names {
		out := "out/hot/" + q
		if err := in.warmRun(q+"/hot", mustQuery(q, out), out); err != nil {
			return nil, err
		}
	}
	var cycle []*op
	in.verify = in.verifyWithOracle(func() {
		for i, q := range names {
			out := "out/hot/" + q
			o := queryOp(i, mustQuery(q, out), out, rowsTail(in.warm[q+"/hot"]))
			for w := 0; w < hotWeights[q]; w++ {
				cycle = append(cycle, o)
			}
		}
		// A seeded shuffle spreads each script's repeats over the cycle.
		rng := rand.New(rand.NewSource(e.seed))
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	})
	in.invariant = func(m *measured) string {
		switch {
		case m.counts[cJobsExecuted] != 0:
			return fmt.Sprintf("pigmix_hot executed %d jobs; the engine must stay idle", m.counts[cJobsExecuted])
		case m.per(cHotServed, cQueries) < 0.99:
			return fmt.Sprintf("pigmix_hot served %d of %d queries from the hot path, want >= 99%%", m.counts[cHotServed], m.counts[cQueries])
		}
		return ""
	}
	in.segment = func(seg int) ([][]*op, error) {
		lists := make([][]*op, in.nClients)
		for c := range lists {
			// Client c starts c/nClients of the way round the cycle, so the
			// two rarely submit the same script at the same moment.
			start := seg*e.sz.hotSegOps + c*len(cycle)/in.nClients
			for j := 0; j < e.sz.hotSegOps; j++ {
				lists[c] = append(lists[c], cycle[(start+j)%len(cycle)])
			}
		}
		return lists, nil
	}
	return in, nil
}

// ---- the measured phase ----

// limit bounds a measured phase: by measured wall time (whole segments until
// it is used up) or, when segments > 0, by an exact segment count.
type limit struct {
	seconds  float64
	segments int
}

// reached reports whether n segments that took spent in all use the limit
// up: the time-bounded form stops at whichever segment boundary lands
// closest to the limit.
func (l limit) reached(spent time.Duration, n int) bool {
	if l.segments > 0 {
		return n >= l.segments
	}
	return spent.Seconds()*(1+1/float64(2*n)) >= l.seconds
}

// measured is everything one pass over an instance produced.
type measured struct {
	tally
	samples []sample
	// wall, cpu and allocBytes are summed over the segments' timed parts.
	wall, cpu  time.Duration
	allocBytes uint64
	segQPS     []float64 // per-segment throughput, for the info line
	segments   int
	calib      []time.Duration
	// peakRSSMB is the resident-set high-water mark of the measured phase;
	// rssResetOK whether the kernel restarted the mark after set-up (if not,
	// the mark covers set-up and the oracle too).
	peakRSSMB  float64
	rssResetOK bool
	// counts is the sum of every segment's counter deltas; countsRepeat
	// whether each segment's exact counters matched the first segment's.
	counts        counts
	countsRepeat  bool
	queueDepthMax int64
	respBytes     int64
	// storedRatioSum adds up, over the segments' ends, repository stored bytes
	// ÷ user input bytes.
	storedRatioSum float64
	repoEntries    int
}

func (m *measured) ops() int { return len(m.samples) }

// per divides a summed counter by another (0 when that one never moved).
func (m *measured) per(num, den counter) float64 { return ratio(m.counts.f(num), m.counts.f(den)) }

// qps is measured ops ÷ measured wall.
func (m *measured) qps() float64 { return ratio(float64(m.ops()), m.wall.Seconds()) }

// queryLatenciesMS returns the round trips of the query ops, sorted, in ms.
func (m *measured) queryLatenciesMS() []float64 {
	out := make([]time.Duration, 0, len(m.samples))
	for _, s := range m.samples {
		if s.kind == opQuery {
			out = append(out, s.d)
		}
	}
	return durationsMS(out)
}

// pass is one measured phase in progress: step runs the next segment of the
// instance's fixed op sequence. Only the client loops are inside the timers;
// the per-segment daemon replacement (pigmix_cold), runtime.GC, the host
// canary and the counter readings are outside them.
type pass struct {
	in          *instance
	tr          *tracer
	sampleQueue bool
	m           *measured
	clients     []*client
	first       counts
	opBase      int
}

func newPass(in *instance, tr *tracer, sampleQueue bool) *pass {
	p := &pass{in: in, tr: tr, sampleQueue: sampleQueue, m: &measured{countsRepeat: true}}
	for i := 0; i < in.nClients; i++ {
		p.clients = append(p.clients, newClient())
	}
	return p
}

func (p *pass) step() error {
	in, m, seg := p.in, p.m, p.m.segments
	lists, err := in.segment(seg)
	if err != nil {
		return err
	}
	runtime.GC()
	m.calib = append(m.calib, calibKernel())
	before, err := in.d.read()
	if err != nil {
		return err
	}
	var stopSampler func() int64
	if p.sampleQueue {
		stopSampler = sampleQueueDepth(in.d)
	}

	if p.tr != nil {
		p.tr.armed.Store(true)
	}
	alloc0, cpu0, t0 := totalAlloc(), cpuTime(), time.Now()
	runClients(in.d, p.clients, lists, p.opBase, p.tr)
	wall, cpu, alloc := time.Since(t0), cpuTime()-cpu0, totalAlloc()-alloc0
	if p.tr != nil {
		p.tr.armed.Store(false)
	}
	if stopSampler != nil {
		m.queueDepthMax = max(m.queueDepthMax, stopSampler())
	}

	segOps := 0
	for _, l := range lists {
		segOps += len(l)
	}
	p.opBase += segOps
	m.wall += wall
	m.cpu += cpu
	m.allocBytes += alloc
	m.segQPS = append(m.segQPS, ratio(float64(segOps), wall.Seconds()))
	m.storedRatioSum += ratio(float64(in.d.sys.Repository().TotalStoredBytes()), float64(in.inputBytes()))

	after, err := in.d.read()
	if err != nil {
		return err
	}
	delta := after.sub(before)
	if seg == 0 {
		p.first = delta
	} else if in.exactCounts && !slices.Equal(delta[:nExact], p.first[:nExact]) {
		m.countsRepeat = false
	}
	m.counts.add(delta)
	m.segments++
	return nil
}

// finish folds the clients' samples and verdicts into the result and runs
// the workload's invariant.
func (p *pass) finish() *measured {
	in, m := p.in, p.m
	m.peakRSSMB = peakRSSMB()
	m.repoEntries = in.d.sys.Repository().Len()
	for _, c := range p.clients {
		m.samples = append(m.samples, c.samples...)
		m.tally.add(c.tally)
		m.respBytes += c.respBytes
	}
	if !m.countsRepeat {
		m.fail("a segment's counts differ from the first segment's on a 1-client workload")
	}
	if in.invariant != nil {
		if msg := in.invariant(m); msg != "" {
			m.fail("%s", msg)
		}
	}
	return m
}

// measure runs whole segments until lim is used up. peak_rss_mb is this
// phase's own: what set-up and the oracle freed goes back to the OS and the
// kernel's high-water mark restarts before the first segment.
func measure(in *instance, lim limit) (*measured, error) {
	p := newPass(in, nil, false)
	releaseSetupHeap()
	p.m.rssResetOK = restartPeakRSS()
	for {
		if err := p.step(); err != nil {
			return nil, err
		}
		if lim.reached(p.m.wall, p.m.segments) {
			return p.finish(), nil
		}
	}
}

// sampleQueueDepth polls the daemon's published queue depth until the
// returned stop function is called, which reports the maximum seen.
func sampleQueueDepth(d *daemon) (stop func() int64) {
	var maxDepth atomic.Int64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if snap, err := d.metrics(); err == nil && snap.QueueDepth > maxDepth.Load() {
					maxDepth.Store(snap.QueueDepth)
				}
			}
		}
	}()
	return func() int64 {
		close(quit)
		<-done
		return maxDepth.Load()
	}
}
