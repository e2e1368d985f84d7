package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dfs"
	"repro/internal/types"
)

func mkRecord(i int) Record {
	return Record{DFS: &dfs.Mutation{
		Op:      dfs.MutCommit,
		Path:    fmt.Sprintf("out/f%d", i%3),
		Part:    i % 4,
		Data:    bytes.Repeat([]byte{byte(i)}, 10+i*7%40),
		Records: int64(i),
	}}
}

func writeSegment(t *testing.T, path string, n int, syncEach bool) {
	t.Helper()
	w, err := OpenWriter(path, syncEach)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func replayAll(t *testing.T, path string) (recs []Record, torn bool) {
	t.Helper()
	var out []Record
	n, torn, err := ReplayFile(path, func(r Record) error {
		out = append(out, r)
		return nil
	}, true)
	if err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	if n != len(out) {
		t.Fatalf("replay reported %d records, applied %d", n, len(out))
	}
	return out, torn
}

func TestWALRoundTrip(t *testing.T) {
	for _, syncEach := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "wal-000001.log")
		writeSegment(t, path, 5, syncEach)
		recs, torn := replayAll(t, path)
		if torn {
			t.Fatalf("syncEach=%v: clean segment reported torn", syncEach)
		}
		if len(recs) != 5 {
			t.Fatalf("syncEach=%v: got %d records, want 5", syncEach, len(recs))
		}
		for i, r := range recs {
			want := mkRecord(i)
			if r.DFS == nil || r.DFS.Path != want.DFS.Path || !bytes.Equal(r.DFS.Data, want.DFS.Data) {
				t.Fatalf("record %d mismatch: %+v", i, r)
			}
		}
	}
}

// TestWALPerRecordSyncIsImmediatelyDurable: in per-record mode the records
// must be on disk without any Flush/Close — the file as-is (as a crash
// would leave it) replays completely.
func TestWALPerRecordSyncIsImmediatelyDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	w, err := OpenWriter(path, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Flush, no Close: simulate the process dying here.
	recs, torn := replayAll(t, path)
	if torn || len(recs) != 3 {
		t.Fatalf("per-record sync left %d records (torn=%v), want 3", len(recs), torn)
	}
	_ = w.Close()
}

// TestWALBatchedBuffersUntilFlush: batched mode must NOT have written
// anything before Flush (that is the contract the -wal-sync window
// documents: a crash may lose the unflushed tail).
func TestWALBatchedBuffersUntilFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	w, err := OpenWriter(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(mkRecord(0)); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 0 {
		t.Fatalf("batched append hit disk before Flush (size %d)", st.Size())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if recs, torn := replayAll(t, path); torn || len(recs) != 1 {
		t.Fatalf("after flush: %d records, torn=%v", len(recs), torn)
	}
}

// TestWALTornTailEveryCutPoint is the crash-point sweep: truncating the
// segment at EVERY byte offset must recover exactly the records whose
// frames fit, report torn for any mid-record cut, physically truncate the
// tail, and leave the segment appendable.
func TestWALTornTailEveryCutPoint(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "wal-000001.log")
	const n = 4
	writeSegment(t, full, n, false)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries, from re-framing the same records.
	bounds := []int64{0}
	for i := 0; i < n; i++ {
		frame, err := encode(mkRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, bounds[len(bounds)-1]+int64(len(frame)))
	}
	if bounds[n] != int64(len(data)) {
		t.Fatalf("frame math: bounds end %d, file %d", bounds[n], len(data))
	}
	intactAt := func(cut int64) (count int, boundary int64) {
		for i := n; i >= 0; i-- {
			if bounds[i] <= cut {
				return i, bounds[i]
			}
		}
		return 0, 0
	}

	for cut := int64(0); cut <= int64(len(data)); cut++ {
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, torn := replayAll(t, path)
		wantCount, wantBoundary := intactAt(cut)
		if len(recs) != wantCount {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), wantCount)
		}
		if wantTorn := cut != wantBoundary; torn != wantTorn {
			t.Fatalf("cut %d: torn=%v, want %v", cut, torn, wantTorn)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != wantBoundary {
			t.Fatalf("cut %d: tail not truncated: size %d, want %d", cut, st.Size(), wantBoundary)
		}
		// The truncated segment must accept appends and replay cleanly.
		w, err := OpenWriter(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(mkRecord(99)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs2, torn2 := replayAll(t, path)
		if torn2 || len(recs2) != wantCount+1 {
			t.Fatalf("cut %d: after re-append got %d records (torn=%v), want %d", cut, len(recs2), torn2, wantCount+1)
		}
	}
}

// TestWALReplayPreservesTornEvidence: without truncateTorn (how recovery
// replays non-final segments), a tear is reported but the file is left
// byte-for-byte intact — the corruption evidence must survive for the
// operator instead of being repaired into a silent hole on the next boot.
func TestWALReplayPreservesTornEvidence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	writeSegment(t, path, 3, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(data) - 5)
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	n, torn, err := ReplayFile(path, func(Record) error { return nil }, false)
	if err != nil || !torn || n != 2 {
		t.Fatalf("replay: n=%d torn=%v err=%v; want 2, true, nil", n, torn, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != cut {
		t.Fatalf("non-truncating replay modified the file: size %d, want %d", st.Size(), cut)
	}
}

// TestWALChecksumCatchesCorruption: flipping a payload byte (same length,
// wrong content) must be detected by the CRC and treated as a tear.
func TestWALChecksumCatchesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	writeSegment(t, path, 3, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn := replayAll(t, path)
	if !torn || len(recs) != 2 {
		t.Fatalf("corrupted final record: got %d records, torn=%v; want 2, true", len(recs), torn)
	}
}

// TestSegmentListingAndGC: one listing covers the meta stream and the
// shard streams of any shard count, in replay order (epoch, then the meta
// stream, then shard streams by count and index), and one remover drops
// every stream's segments below an epoch.
func TestSegmentListingAndGC(t *testing.T) {
	dir := t.TempDir()
	type stream struct{ count, shard int }
	for _, epoch := range []uint64{3, 1, 2} {
		for _, st := range []stream{{2, 1}, {0, 0}, {2, 0}} {
			writeSegment(t, SegmentPath(dir, st.count, st.shard, epoch), 1, false)
		}
	}
	// A 1-shard stream left by a shard-count change, and a stranger file.
	writeSegment(t, SegmentPath(dir, 1, 0, 1), 1, false)
	if err := os.WriteFile(filepath.Join(dir, "wal-junk.log"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	names := func() []string {
		t.Helper()
		segs, err := Segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range segs {
			if s.Path != SegmentPath(dir, s.Count, s.Shard, s.Epoch) {
				t.Fatalf("segment %+v does not round-trip its path", s)
			}
			out = append(out, filepath.Base(s.Path))
		}
		return out
	}
	want := []string{
		"wal-000001.log", "wal-s1-000-000001.log", "wal-s2-000-000001.log", "wal-s2-001-000001.log",
		"wal-000002.log", "wal-s2-000-000002.log", "wal-s2-001-000002.log",
		"wal-000003.log", "wal-s2-000-000003.log", "wal-s2-001-000003.log",
	}
	if got := names(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("segments:\n got %v\nwant %v", got, want)
	}
	removed, err := RemoveSegmentsBelow(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 7 {
		t.Fatalf("removed %d segments, want 7", removed)
	}
	if got := names(); fmt.Sprint(got) != fmt.Sprint(want[7:]) {
		t.Fatalf("segments after GC: %v", got)
	}
}

// TestRecordSizeBound: the writer and the reader share one bound, so a
// record the reader would discard as a torn tail is never appended.
func TestRecordSizeBound(t *testing.T) {
	for _, c := range []struct {
		n  uint64
		ok bool
	}{{0, true}, {maxRecordSize, true}, {maxRecordSize + 1, false}, {1<<32 - 1, false}} {
		if err := checkRecordSize(c.n); (err == nil) != c.ok {
			t.Errorf("checkRecordSize(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
	}
	// The reader applies the bound: a frame header claiming one byte over
	// the limit is a tear, not an allocation request.
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	writeSegment(t, path, 2, false)
	hdr := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(hdr, maxRecordSize+1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(hdr, bytes.Repeat([]byte{'x'}, 64)...)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if recs, torn := replayAll(t, path); !torn || len(recs) != 2 {
		t.Fatalf("oversized length: %d records, torn=%v; want 2, true", len(recs), torn)
	}
}

// TestJournaledFSReplayReconstructs drives a random mutation sequence
// through a journaled FS into a WAL, replays the log into a fresh FS, and
// requires byte-identical Export output — the core correctness property the
// daemon's recovery path is built on.
func TestJournaledFSReplayReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	w, err := OpenWriter(path, false)
	if err != nil {
		t.Fatal(err)
	}
	src := dfs.New()
	src.SetJournals([]dfs.Journal{journalFunc(func(m dfs.Mutation) {
		if _, err := w.Append(Record{DFS: &m}); err != nil {
			t.Errorf("append: %v", err)
		}
	})})

	schema := types.SchemaFromNames("a", "b")
	live := []string{}
	for i := 0; i < 200; i++ {
		switch {
		case len(live) == 0 || rng.Intn(4) == 0: // create (or truncate)
			p := fmt.Sprintf("data/f%d", rng.Intn(10))
			existed := src.Exists(p)
			if _, err := src.Create(p, 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
			if err := src.SetSchema(p, schema); err != nil {
				t.Fatal(err)
			}
			if !existed {
				live = append(live, p)
			}
		case rng.Intn(5) == 0: // delete
			j := rng.Intn(len(live))
			if err := src.Delete(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		default: // commit a partition
			p := live[rng.Intn(len(live))]
			parts, err := src.Partitions(p)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 1+rng.Intn(64))
			rng.Read(data)
			if err := src.CommitPartition(p, rng.Intn(parts), data, int64(rng.Intn(9))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	dst := dfs.New()
	if _, torn, err := ReplayFile(path, func(r Record) error { return dst.Apply(*r.DFS) }, true); err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	var want, got bytes.Buffer
	if err := src.Export(&want); err != nil {
		t.Fatal(err)
	}
	if err := dst.Export(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("replayed FS does not match the journaled FS")
	}
}

// journalFunc adapts a func to dfs.Journal.
type journalFunc func(dfs.Mutation)

func (f journalFunc) Record(m dfs.Mutation) { f(m) }
