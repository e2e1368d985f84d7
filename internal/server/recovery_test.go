package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	restore "repro"
	"repro/internal/persist"
	"repro/internal/pigmix"
)

// Crash-recovery battery for the write-ahead-logged persister: a daemon
// killed without any shutdown checkpoint — including mid-record — must
// restart to exactly the state its fsynced log describes.

// crashableDaemon boots a Server whose WAL fsyncs every record, so "kill
// the process here" is modeled faithfully: everything acknowledged is on
// disk, and crash() abandons the daemon without Close — no drain, no
// shutdown compaction, the state directory left exactly as a SIGKILL
// would.
type crashableDaemon struct {
	t   *testing.T
	srv *Server
	ln  net.Listener
	err chan error
}

func startCrashable(t *testing.T, cfg Config) (*crashableDaemon, string) {
	t.Helper()
	if cfg.WALSyncInterval == 0 {
		cfg.WALSyncInterval = SyncEveryRecord
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &crashableDaemon{t: t, srv: srv, ln: ln, err: make(chan error, 1)}
	go func() { d.err <- srv.Serve(ln) }()
	return d, "http://" + ln.Addr().String()
}

// crash kills the daemon the hard way: close the listener, detach nothing,
// checkpoint nothing. The Server object is abandoned mid-life.
func (d *crashableDaemon) crash() {
	d.ln.Close()
	<-d.err // Serve returned (listener closed); workers are idle by now
}

// stop is the graceful path (drain + compaction), for control daemons.
func (d *crashableDaemon) stop() {
	d.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Close(ctx); err != nil {
		d.t.Errorf("daemon close: %v", err)
	}
	if err := <-d.err; err != nil && err != http.ErrServerClosed {
		d.t.Errorf("serve: %v", err)
	}
}

// exportState captures a system's durable state (repository JSON + DFS
// JSON) for byte-level comparison.
func exportState(t *testing.T, sys *restore.System) []byte {
	t.Helper()
	var repo, dfs bytes.Buffer
	if err := sys.SaveState(&repo, &dfs); err != nil {
		t.Fatal(err)
	}
	return append(repo.Bytes(), dfs.Bytes()...)
}

// pigmixDaemonConfig seeds a fresh System with the tiny PigMix tables.
func pigmixSystem(t *testing.T) *restore.System {
	t.Helper()
	sys := restore.New()
	if err := pigmix.Generate(sys.FS(), tinyPigmix); err != nil {
		t.Fatal(err)
	}
	return sys
}

// variantWorkload returns deterministic PigMix variant scripts (heavy
// repository reuse across them).
func variantWorkload(t *testing.T, rounds int) []string {
	t.Helper()
	names := pigmix.VariantNames()
	out := make([]string, 0, rounds)
	for i := 0; i < rounds; i++ {
		src, err := pigmix.Query(names[i%len(names)], fmt.Sprintf("out/rec/q%d", i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, src)
	}
	return out
}

// TestCrashBetweenWALAppendAndCompaction is the headline recovery test: a
// daemon killed after its WAL absorbed a workload but before ANY
// compaction folded it into a snapshot must restart to byte-identical
// repository and DFS state.
func TestCrashBetweenWALAppendAndCompaction(t *testing.T) {
	stateDir := t.TempDir()
	d, base := startCrashable(t, Config{System: pigmixSystem(t), StateDir: stateDir})
	c := NewClient(base)
	// Baseline snapshot: the preloaded tables predate the journal, so they
	// reach disk only via a compaction.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, src := range variantWorkload(t, 6) {
		if _, err := c.Submit(src, false); err != nil {
			t.Fatal(err)
		}
	}
	want := exportState(t, d.srv.System())
	d.crash()

	// No compaction ever saw the workload: everything lives in the log, in
	// one epoch's segments of the meta stream and the one shard stream.
	segs, err := persist.Segments(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Epoch != segs[1].Epoch || segs[0].Count != 0 || segs[1].Count != 1 {
		t.Fatalf("expected one epoch's meta and shard segment after crash, found %+v", segs)
	}
	for _, seg := range segs {
		if st, err := os.Stat(seg.Path); err != nil || st.Size() == 0 {
			t.Fatalf("WAL segment %s empty (err=%v): the workload was never logged", filepath.Base(seg.Path), err)
		}
	}

	srv2, err := New(Config{StateDir: stateDir, WALSyncInterval: SyncEveryRecord})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if got := exportState(t, srv2.System()); !bytes.Equal(want, got) {
		t.Fatalf("recovered state differs from pre-crash state (%d vs %d bytes)", len(want), len(got))
	}
	ws := srv2.persist.stats()
	if ws.RecoveredRecords == 0 {
		t.Error("recovery replayed no WAL records")
	}
	if ws.RecoveredTorn {
		t.Error("clean log reported a torn tail")
	}
}

// TestCrashAfterMidRunCompaction kills the daemon after a compaction plus
// further WAL-only work: recovery must stack the post-compaction log onto
// the snapshot.
func TestCrashAfterMidRunCompaction(t *testing.T) {
	stateDir := t.TempDir()
	d, base := startCrashable(t, Config{System: pigmixSystem(t), StateDir: stateDir})
	c := NewClient(base)
	w := variantWorkload(t, 8)
	for _, src := range w[:4] {
		if _, err := c.Submit(src, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, src := range w[4:] {
		if _, err := c.Submit(src, false); err != nil {
			t.Fatal(err)
		}
	}
	want := exportState(t, d.srv.System())
	d.crash()

	srv2, err := New(Config{StateDir: stateDir, WALSyncInterval: SyncEveryRecord})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if got := exportState(t, srv2.System()); !bytes.Equal(want, got) {
		t.Fatal("recovered state differs from pre-crash state")
	}
	if srv2.persist.stats().RecoveredRecords == 0 {
		t.Error("post-compaction workload left no replayable records")
	}
}

// TestTornFinalRecordRecovery truncates the stream holding the crashed
// daemon's last appended record at a spread of byte offsets — including
// mid-record cuts — and requires every variant to recover
// deterministically: booting the same truncated directory twice yields
// byte-identical state, a mid-record cut is reported as a torn tail, and the
// recovered daemon keeps answering queries with reuse.
func TestTornFinalRecordRecovery(t *testing.T) {
	stateDir := t.TempDir()
	d, base := startCrashable(t, Config{System: pigmixSystem(t), StateDir: stateDir})
	c := NewClient(base)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, src := range variantWorkload(t, 4) {
		if _, err := c.Submit(src, false); err != nil {
			t.Fatal(err)
		}
	}
	// An upload of a fresh path journals only DFS records, so the last
	// record the daemon appends is in the shard stream.
	const lastPath = "in/torn-last"
	if _, err := c.Upload(lastPath, "k:int", 1, []string{"1", "2"}); err != nil {
		t.Fatal(err)
	}
	d.crash()

	segs, err := persist.Segments(stateDir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments after crash (err=%v)", err)
	}
	last := segs[len(segs)-1]
	walPath := last.Path
	var lastRec persist.Record
	if _, _, err := persist.ReplayFile(walPath, func(r persist.Record) error { lastRec = r; return nil }, false); err != nil {
		t.Fatal(err)
	}
	if last.Count != 1 || lastRec.DFS == nil || lastRec.DFS.Path != lastPath {
		t.Fatalf("torn victim %s does not end with the last appended record (%+v)", filepath.Base(walPath), lastRec)
	}
	names := []string{repoStateFile, dfsStateFile}
	for _, seg := range segs {
		names = append(names, filepath.Base(seg.Path))
	}
	files := map[string][]byte{}
	for _, f := range names {
		b, err := os.ReadFile(filepath.Join(stateDir, f))
		if err != nil {
			t.Fatal(err)
		}
		files[f] = b
	}
	walData := files[filepath.Base(walPath)]

	makeDir := func(cut int) string {
		dir := t.TempDir()
		for f, b := range files {
			if f == filepath.Base(walPath) {
				b = b[:cut]
			}
			if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	recoverState := func(dir string) ([]byte, *WALStats) {
		// Per-record sync keeps the abandoned Server loop-free (no flush
		// ticker goroutine outlives this probe).
		srv, err := New(Config{StateDir: dir, WALSyncInterval: SyncEveryRecord})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		return exportState(t, srv.System()), srv.persist.stats()
	}

	// A spread of cuts: full log, then progressively deeper mid-log
	// truncations (byte-granular cut coverage lives in internal/persist's
	// every-offset sweep; this exercises the full daemon path).
	cuts := []int{len(walData), len(walData) - 3, len(walData) / 2, len(walData) / 3, 1}
	for _, cut := range cuts {
		if cut < 0 {
			continue
		}
		dirA := makeDir(cut)
		stateA, statsA := recoverState(dirA)
		// Determinism: recovering an identical directory must yield
		// byte-identical state.
		stateB, _ := recoverState(makeDir(cut))
		if !bytes.Equal(stateA, stateB) {
			t.Fatalf("cut %d: recovery is not deterministic", cut)
		}
		if cut == len(walData) && statsA.RecoveredTorn {
			t.Errorf("cut %d: full log reported torn", cut)
		}
		if cut == len(walData)-3 && !statsA.RecoveredTorn {
			t.Errorf("cut %d: mid-record cut not reported as torn tail", cut)
		}

		// The recovered daemon must still serve and reuse: boot it for real
		// over dirA (its WAL was truncated to a clean boundary by recovery,
		// so a second boot appends after the tear).
		srv, err := New(Config{StateDir: dirA, WALSyncInterval: SyncEveryRecord})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		cc := NewClient("http://" + ln.Addr().String())
		resp, err := cc.Submit(variantWorkload(t, 1)[0], true)
		if err != nil {
			t.Fatalf("cut %d: recovered daemon cannot execute: %v", cut, err)
		}
		if len(resp.Rows) == 0 {
			t.Fatalf("cut %d: recovered daemon returned no rows", cut)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Close(ctx); err != nil {
			t.Errorf("cut %d: close: %v", cut, err)
		}
		cancel()
		<-serveErr
	}
}

// TestCrashedAndCleanShutdownConvergeOnHitRate runs the identical workload
// through a crashed daemon (recovered from WAL) and a cleanly stopped one
// (recovered from its shutdown compaction), then replays a second workload
// against both: reuse behavior must be identical — the log is as good as
// the snapshot.
func TestCrashedAndCleanShutdownConvergeOnHitRate(t *testing.T) {
	warmup := variantWorkload(t, 6)
	replay := variantWorkload(t, 6)

	runRecovered := func(graceful bool) (hitRate float64, rewrites int) {
		stateDir := t.TempDir()
		d, base := startCrashable(t, Config{System: pigmixSystem(t), StateDir: stateDir})
		c := NewClient(base)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, src := range warmup {
			if _, err := c.Submit(src, false); err != nil {
				t.Fatal(err)
			}
		}
		if graceful {
			d.stop()
		} else {
			d.crash()
		}

		d2, base2 := startCrashable(t, Config{StateDir: stateDir})
		defer d2.stop()
		c2 := NewClient(base2)
		for _, src := range replay {
			resp, err := c2.Submit(src, false)
			if err != nil {
				t.Fatal(err)
			}
			rewrites += len(resp.Result.Rewrites)
			if len(resp.Result.Evicted) != 0 {
				t.Errorf("recovered daemon evicted %v on replay (graceful=%v)", resp.Result.Evicted, graceful)
			}
		}
		m, err := c2.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		return m.Reuse.HitRate, rewrites
	}

	crashHit, crashRw := runRecovered(false)
	cleanHit, cleanRw := runRecovered(true)
	if crashHit != cleanHit || crashRw != cleanRw {
		t.Errorf("crash recovery diverges from clean shutdown: hit-rate %.3f vs %.3f, rewrites %d vs %d",
			crashHit, cleanHit, crashRw, cleanRw)
	}
	if crashRw == 0 {
		t.Error("replayed workload was never rewritten against the recovered repository")
	}
}

// TestCompactionSweepsOrphanedTemps covers the output-GC half-fix: an
// unreferenced restore/tmp file (what a failed workflow strands) must be
// reclaimed — at startup recovery for pre-existing orphans, and by the
// next compaction for ones stranded at runtime — while
// repository-referenced restore/ files survive.
func TestCompactionSweepsOrphanedTemps(t *testing.T) {
	stateDir := t.TempDir()
	sys := pigmixSystem(t)
	// An orphan present before the daemon starts: recovery's sweep takes it.
	if err := sys.LoadTSV("restore/tmp/q9998/j0", "k:int", []string{"1"}, 1); err != nil {
		t.Fatal(err)
	}
	d, base := startCrashable(t, Config{System: sys, StateDir: stateDir})
	defer d.stop()
	c := NewClient(base)
	fs := d.srv.System().FS()
	if fs.Exists("restore/tmp/q9998/j0") {
		t.Error("startup sweep left a pre-existing orphan in the DFS")
	}
	// Build real repository entries whose restore/ files must survive.
	for _, src := range variantWorkload(t, 3) {
		if _, err := c.Submit(src, false); err != nil {
			t.Fatal(err)
		}
	}
	// Strand runtime orphans (what a failed workflow leaves behind): the
	// daemon is idle here, so direct FS writes do not race the scheduler.
	for _, p := range []string{"restore/tmp/q9999/j0", "restore/sub/s9999"} {
		if err := sys.LoadTSV(p, "k:int", []string{"1"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"restore/tmp/q9999/j0", "restore/sub/s9999"} {
		if fs.Exists(p) {
			t.Errorf("compaction left orphan %s in the DFS", p)
		}
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.WAL == nil || m.WAL.TempFilesSwept < 3 {
		t.Fatalf("metrics report %+v swept temp files, want >= 3", m.WAL)
	}
	// Referenced stored outputs are untouched: repeats still rewrite.
	resp, err := c.Submit(variantWorkload(t, 1)[0], false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rewrites) == 0 {
		t.Error("sweep deleted referenced stored outputs (no rewrites on repeat)")
	}
}

// TestCheckpointCostWALFlatSnapshotGrows pins what incremental persistence
// buys, in bytes: six rounds each add the same mutation volume (one upload,
// two queries over it) to a durable daemon. The WAL bytes a round appends
// stay flat (O(mutations in the interval)), while the snapshot a forced
// compaction writes after it grows with everything stored so far (O(DFS)).
func TestCheckpointCostWALFlatSnapshotGrows(t *testing.T) {
	base, stop := startDaemon(t, Config{StateDir: t.TempDir()})
	defer stop()
	c := NewClient(base)
	wal := func() WALStats {
		t.Helper()
		m, err := c.Metrics()
		if err != nil || m.WAL == nil {
			t.Fatalf("metrics: %+v, %v", m, err)
		}
		return *m.WAL
	}
	const rounds = 6
	var walDelta, snapDelta [rounds]int64
	for r := 0; r < rounds; r++ {
		before := wal()
		lines := make([]string, 400)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", (i*13+r)%50, (i*7+r)%100)
		}
		if _, err := c.Upload(fmt.Sprintf("in/ck%d", r), "k:int, v:int", 2, lines); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 2; q++ {
			src := fmt.Sprintf(`A = load 'in/ck%d' as (k:int, v:int);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B), SUM(B.v);
store D into 'out/ck%d/q%d';`, r, q*17, r, q)
			if _, err := c.Submit(src, false); err != nil {
				t.Fatal(err)
			}
		}
		appended := wal()
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		walDelta[r] = appended.Bytes - before.Bytes
		snapDelta[r] = wal().CompactBytes - appended.CompactBytes
	}
	if walDelta[0] <= 0 || snapDelta[0] <= 0 {
		t.Fatalf("round 0 wrote wal=%d snapshot=%d bytes, want both > 0", walDelta[0], snapDelta[0])
	}
	for r, d := range walDelta {
		if 2*d > 3*walDelta[0] {
			t.Errorf("round %d appended %d WAL bytes, over 1.5x round 0's %d: %v", r, d, walDelta[0], walDelta)
		}
	}
	if snapDelta[rounds-1] < 3*snapDelta[0] {
		t.Errorf("snapshot bytes did not track total DFS size: %v", snapDelta)
	}
}
