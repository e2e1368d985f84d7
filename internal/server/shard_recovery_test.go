package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	restore "repro"
	"repro/internal/dfs"
	"repro/internal/persist"
	"repro/internal/pigmix"
)

// Crash battery for the WAL layout every core writes: one meta stream plus
// one stream per DFS shard. Each test runs at 1 shard and at
// testShards. Per-stream torn tails must be repaired, interleaved stream
// segments replayed order-independently, and cross-stream divergence
// healed; a -shards change across restarts must be absorbed by a layout
// compaction. At 1 shard the two streams still fsync independently, so the
// divergence cases apply there too.

const testShards = 3

// forEachShardCount runs body as one subtest at 1 shard and one at
// testShards.
func forEachShardCount(t *testing.T, body func(t *testing.T, shards int)) {
	for _, shards := range []int{1, testShards} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { body(t, shards) })
	}
}

// shardedPigmixSystem builds a System of the given shard count seeded with
// the tiny PigMix tables.
func shardedPigmixSystem(t *testing.T, shards int) *restore.System {
	t.Helper()
	sys := restore.New(restore.WithShards(shards))
	if err := pigmix.Generate(sys.FS(), tinyPigmix); err != nil {
		t.Fatal(err)
	}
	return sys
}

// shardStreamFiles returns the on-disk shard stream segments grouped by
// shard index (meta stream excluded).
func shardStreamFiles(t *testing.T, dir string) map[int][]persist.Segment {
	t.Helper()
	segs, err := persist.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	byShard := map[int][]persist.Segment{}
	for _, s := range segs {
		if s.Count > 0 {
			byShard[s.Shard] = append(byShard[s.Shard], s)
		}
	}
	return byShard
}

// TestShardedCrashRecovery is the sharded analogue of the headline recovery
// test: a sharded daemon killed after its streams absorbed a workload but
// before any compaction must restart — as a sharded daemon — to
// byte-identical repository and DFS state, replaying records from the meta
// stream and every shard stream.
func TestShardedCrashRecovery(t *testing.T) { forEachShardCount(t, testShardedCrashRecovery) }

func testShardedCrashRecovery(t *testing.T, shards int) {
	stateDir := t.TempDir()
	d, base := startCrashable(t, Config{System: shardedPigmixSystem(t, shards), StateDir: stateDir})
	c := NewClient(base)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, src := range variantWorkload(t, 6) {
		if _, err := c.Submit(src, false); err != nil {
			t.Fatal(err)
		}
	}
	want := exportState(t, d.srv.System())
	wantStreams := d.srv.persist.stats().Streams
	d.crash()

	if wantStreams != 1+shards {
		t.Fatalf("%d-shard daemon ran %d WAL streams, want %d", shards, wantStreams, 1+shards)
	}
	// The workload's DFS mutations must actually be spread over the shard
	// streams, or the whole layout is vacuous.
	populated := 0
	for _, segs := range shardStreamFiles(t, stateDir) {
		for _, s := range segs {
			if st, err := os.Stat(s.Path); err == nil && st.Size() > 0 {
				populated++
				break
			}
		}
	}
	if populated < min(2, shards) {
		t.Fatalf("only %d shard streams hold records; workload never spread across shards", populated)
	}

	srv2, err := New(Config{Shards: shards, StateDir: stateDir, WALSyncInterval: SyncEveryRecord})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if got := srv2.System().Shards(); got != shards {
		t.Fatalf("recovered daemon runs %d shards, want %d", got, shards)
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

// TestShardReplayOrderIndependent proves stream replay is
// order-independent: the segments of a crashed daemon, applied to the
// recovered snapshot in many shuffled stream orders, always converge to the
// same DFS state. Shard streams never carry records for the same path, and
// the meta stream carries no DFS record at all, so no interleaving can
// change the outcome. At 1 shard the permutation is meta against the one
// shard stream.
func TestShardReplayOrderIndependent(t *testing.T) {
	forEachShardCount(t, testShardReplayOrderIndependent)
}

func testShardReplayOrderIndependent(t *testing.T, shards int) {
	stateDir := t.TempDir()
	d, base := startCrashable(t, Config{System: shardedPigmixSystem(t, shards), StateDir: stateDir})
	c := NewClient(base)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, src := range variantWorkload(t, 6) {
		if _, err := c.Submit(src, false); err != nil {
			t.Fatal(err)
		}
	}
	d.crash()

	segs, err := persist.Segments(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1+shards {
		t.Fatalf("want the %d stream segments of one epoch to permute, got %d", 1+shards, len(segs))
	}

	replayInOrder := func(order []int) []byte {
		fs := dfs.NewSharded(shards)
		f, err := os.Open(filepath.Join(stateDir, dfsStateFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Import(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		apply := func(rec persist.Record) error {
			if rec.DFS != nil {
				return fs.Apply(*rec.DFS)
			}
			return nil
		}
		for _, i := range order {
			if _, _, err := persist.ReplayFile(segs[i].Path, apply, false); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := fs.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	base0 := make([]int, len(segs))
	for i := range base0 {
		base0[i] = i
	}
	want := replayInOrder(base0)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		order := append([]int(nil), base0...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got := replayInOrder(order); !bytes.Equal(want, got) {
			t.Fatalf("trial %d: shard replay order %v diverged (%d vs %d bytes)", trial, order, len(got), len(want))
		}
	}
}

// TestShardedTornTailSweep truncates each shard stream's final segment (and
// the meta stream's) at a spread of byte offsets: every cut must recover
// deterministically — booting the same truncated directory twice yields
// byte-identical state — and leave a daemon that still answers queries.
// This is the kill-between-shard-appends case: one stream's tail is torn or
// short while its siblings are intact.
func TestShardedTornTailSweep(t *testing.T) { forEachShardCount(t, testShardedTornTailSweep) }

func testShardedTornTailSweep(t *testing.T, shards int) {
	stateDir := t.TempDir()
	d, base := startCrashable(t, Config{System: shardedPigmixSystem(t, shards), StateDir: stateDir})
	c := NewClient(base)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, src := range variantWorkload(t, 5) {
		if _, err := c.Submit(src, false); err != nil {
			t.Fatal(err)
		}
	}
	d.crash()

	// Capture the whole directory once; each variant rebuilds it with one
	// stream's tail cut.
	files := map[string][]byte{}
	ents, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(stateDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}

	makeDir := func(victim string, cut int) string {
		dir := t.TempDir()
		for name, b := range files {
			if name == victim {
				b = b[:cut]
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	recoverState := func(dir string) ([]byte, *WALStats) {
		srv, err := New(Config{Shards: shards, StateDir: dir, WALSyncInterval: SyncEveryRecord})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		return exportState(t, srv.System()), srv.persist.stats()
	}

	// Every stream with records is a victim; cut its tail mid-record and at
	// a deep truncation.
	var victims []string
	for name, b := range files {
		if filepath.Ext(name) == ".log" && len(b) > 8 {
			victims = append(victims, name)
		}
	}
	if len(victims) < 2 {
		t.Fatalf("only %d populated streams; battery premise broken", len(victims))
	}
	for _, victim := range victims {
		size := len(files[victim])
		for _, cut := range []int{size - 3, size / 2, 1} {
			if cut < 0 || cut >= size {
				continue
			}
			stateA, statsA := recoverState(makeDir(victim, cut))
			stateB, _ := recoverState(makeDir(victim, cut))
			if !bytes.Equal(stateA, stateB) {
				t.Fatalf("%s cut %d: recovery is not deterministic", victim, cut)
			}
			if cut == size-3 && !statsA.RecoveredTorn {
				t.Errorf("%s cut %d: mid-record cut not reported as torn tail", victim, cut)
			}

			// The healed daemon must still serve with reuse: boot one for
			// real and run a query.
			dir := makeDir(victim, cut)
			d2, base2 := startCrashable(t, Config{Shards: shards, StateDir: dir})
			c2 := NewClient(base2)
			resp, err := c2.Submit(variantWorkload(t, 1)[0], true)
			if err != nil {
				t.Fatalf("%s cut %d: recovered daemon cannot execute: %v", victim, cut, err)
			}
			if len(resp.Rows) == 0 {
				t.Fatalf("%s cut %d: recovered daemon returned no rows", victim, cut)
			}
			d2.stop()
		}
	}
}

// TestShardedLostStreamHealed models the worst cross-stream divergence: an
// entire shard stream's unflushed records lost (the file deleted) while the
// meta stream kept the repository adds referencing those outputs. Recovery
// must drop the stranded entries instead of serving reads of missing files,
// and the daemon must keep answering.
func TestShardedLostStreamHealed(t *testing.T) { forEachShardCount(t, testShardedLostStreamHealed) }

func testShardedLostStreamHealed(t *testing.T, shards int) {
	stateDir := t.TempDir()
	d, base := startCrashable(t, Config{System: shardedPigmixSystem(t, shards), StateDir: stateDir})
	c := NewClient(base)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, src := range variantWorkload(t, 6) {
		if _, err := c.Submit(src, false); err != nil {
			t.Fatal(err)
		}
	}
	d.crash()

	// Delete the fattest shard stream: its creates (stored outputs among
	// them) are gone, but the meta stream still replays their entries.
	var victim string
	var victimSize int64 = -1
	for _, segs := range shardStreamFiles(t, stateDir) {
		for _, s := range segs {
			if st, err := os.Stat(s.Path); err == nil && st.Size() > victimSize {
				victim, victimSize = s.Path, st.Size()
			}
		}
	}
	if victim == "" || victimSize <= 0 {
		t.Fatal("no populated shard stream to lose")
	}
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{Shards: shards, StateDir: stateDir, WALSyncInterval: SyncEveryRecord})
	if err != nil {
		t.Fatalf("recovery with a lost shard stream failed: %v", err)
	}
	// Every surviving entry's stored output must exist; stranded ones were
	// dropped and counted.
	if srv2.persist.stats().RecoveredDroppedEntries == 0 {
		t.Error("losing the fattest shard stream stranded no repository entry; divergence never exercised")
	}
	fs := srv2.System().FS()
	for _, e := range srv2.System().Repository().All() {
		if !fs.Exists(e.OutputPath) {
			t.Errorf("entry %s survived recovery but its output %s is gone", e.ID, e.OutputPath)
		}
	}

	ln, base2 := startCrashable2(t, srv2)
	defer ln.stop()
	c2 := NewClient(base2)
	resp, err := c2.Submit(variantWorkload(t, 1)[0], true)
	if err != nil {
		t.Fatalf("daemon with healed divergence cannot execute: %v", err)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("daemon with healed divergence returned no rows")
	}
}

// startCrashable2 serves an already-built Server (the recovery probes build
// the Server first to inspect it, then need it live).
func startCrashable2(t *testing.T, srv *Server) (*crashableDaemon, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &crashableDaemon{t: t, srv: srv, ln: ln, err: make(chan error, 1)}
	go func() { d.err <- srv.Serve(ln) }()
	return d, "http://" + ln.Addr().String()
}

// TestShardLayoutChangeAcrossRestart restarts a sharded state directory
// under a different shard count: recovery must replay the foreign layout
// correctly, then compact it away — the directory afterwards holds only the
// new layout's streams and the daemon's state matches the pre-restart
// state.
func TestShardLayoutChangeAcrossRestart(t *testing.T) {
	stateDir := t.TempDir()
	d, base := startCrashable(t, Config{System: shardedPigmixSystem(t, testShards), StateDir: stateDir})
	c := NewClient(base)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, src := range variantWorkload(t, 5) {
		if _, err := c.Submit(src, false); err != nil {
			t.Fatal(err)
		}
	}
	want := exportState(t, d.srv.System())
	d.crash()

	for _, newShards := range []int{2, 1} {
		srv2, err := New(Config{Shards: newShards, StateDir: stateDir, WALSyncInterval: SyncEveryRecord})
		if err != nil {
			t.Fatalf("recovery at %d shards failed: %v", newShards, err)
		}
		if got := exportState(t, srv2.System()); !bytes.Equal(want, got) {
			t.Fatalf("state after -shards=%d restart differs (%d vs %d bytes)", newShards, len(got), len(want))
		}
		// The layout compaction must have removed every foreign-layout
		// stream.
		for _, segs := range shardStreamFiles(t, stateDir) {
			for _, s := range segs {
				if s.Count != newShards {
					t.Fatalf("foreign-layout stream %s survived the -shards=%d restart", filepath.Base(s.Path), newShards)
				}
			}
		}
		if err := srv2.persist.close(); err != nil {
			t.Fatal(err)
		}
	}
}
