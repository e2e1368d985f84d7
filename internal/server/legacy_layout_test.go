package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
)

// legacyFixture is a state directory written by a 1-shard daemon from before
// every core split its WAL into a meta stream plus shard streams: a snapshot
// pair and one wal-000001.log holding DFS and repository records
// interleaved. legacyGolden is the exported state that directory recovers
// to.
const (
	legacyFixture = "testdata/legacy-1shard"
	legacyGolden  = "testdata/legacy-1shard.golden"
)

// TestLegacyLayoutFixture opens the legacy directory at 1 shard and at 4.
// Each must replay through the one replay loop to the golden state and run
// the one layout (1 meta + N shard streams); after one checkpoint no meta
// stream segment may hold a DFS record.
func TestLegacyLayoutFixture(t *testing.T) {
	golden, err := os.ReadFile(legacyGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			ents, err := os.ReadDir(legacyFixture)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				b, err := os.ReadFile(filepath.Join(legacyFixture, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			srv, err := New(Config{Shards: shards, StateDir: dir, WALSyncInterval: SyncEveryRecord})
			if err != nil {
				t.Fatalf("open legacy dir: %v", err)
			}
			defer srv.persist.close()
			if got := exportState(t, srv.System()); !bytes.Equal(got, golden) {
				t.Fatalf("recovered state differs from the golden (%d vs %d bytes)", len(got), len(golden))
			}
			ws := srv.persist.stats()
			if ws.Streams != 1+shards || ws.Segment != 1 || ws.RecoveredRecords == 0 {
				t.Fatalf("stats %+v: want %d streams appending at the legacy epoch 1 after a replay", ws, 1+shards)
			}

			if ran, err := srv.persist.compact(); err != nil || !ran {
				t.Fatalf("checkpoint: ran=%v err=%v", ran, err)
			}
			segs, err := persist.Segments(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range segs {
				if seg.Count != 0 {
					continue
				}
				if _, _, err := persist.ReplayFile(seg.Path, func(r persist.Record) error {
					if r.DFS != nil {
						return fmt.Errorf("DFS record for %s", r.DFS.Path)
					}
					return nil
				}, false); err != nil {
					t.Errorf("meta segment %s after checkpoint: %v", filepath.Base(seg.Path), err)
				}
			}
		})
	}
}
