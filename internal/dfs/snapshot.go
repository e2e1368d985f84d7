package dfs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/types"
)

// The restored daemon persists the whole simulated DFS alongside the ReStore
// repository so that a restart resumes with both the learned repository and
// the files its entries reference — without the snapshot, Rule-4 eviction
// would correctly drop every entry on the first query after a restart.

// snapshotJSON is the persisted form. Partition data is raw encoded tuple
// records; encoding/json base64s the byte slices. The snapshot is
// shard-count-agnostic: files carry no shard assignment, so a snapshot
// written by an N-shard FS imports cleanly into an M-shard one (paths
// re-route on Import).
type snapshotJSON struct {
	Version int        `json:"version"`
	Clock   uint64     `json:"clock"` // the FS-wide version counter
	Files   []fileJSON `json:"files"`
}

type fileJSON struct {
	Path    string          `json:"path"`
	Version uint64          `json:"fileVersion"`
	Schema  types.Schema    `json:"schema"`
	Parts   []partitionJSON `json:"parts"`
}

type partitionJSON struct {
	Data    []byte `json:"data"`
	Records int64  `json:"records"`
}

const snapshotVersion = 1

// Export writes every file (data, schema, version) as JSON. Versions are
// preserved exactly so repository entries' InputVersions stay valid across
// an Export/Import round trip. Every shard's read lock is held (acquired in
// ascending index order) while the document is built, so the snapshot is a
// consistent cut across the whole namespace.
func (fs *FS) Export(w io.Writer) error {
	for i := range fs.shards {
		fs.shards[i].mu.RLock()
	}
	doc := snapshotJSON{Version: snapshotVersion, Clock: fs.version.Load()}
	var paths []string
	for i := range fs.shards {
		for p := range fs.shards[i].files {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		f := fs.shardOf(p).files[p]
		fj := fileJSON{Path: p, Version: f.Version, Schema: f.Schema}
		for _, part := range f.Parts {
			fj.Parts = append(fj.Parts, partitionJSON{Data: part.Data, Records: part.Records})
		}
		doc.Files = append(doc.Files, fj)
	}
	for i := len(fs.shards) - 1; i >= 0; i-- {
		fs.shards[i].mu.RUnlock()
	}

	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("dfs: export: %w", err)
	}
	return nil
}

// Import replaces the FS contents with a snapshot written by Export. The
// read/write byte counters are left untouched (they describe this process's
// lifetime, not the dataset's). Import is a recovery-time wholesale replace,
// not a journaled mutation: call it before attaching a Journal — it resets
// the dirty-path tracking to an all-clean baseline (the snapshot is, by
// definition, already persisted).
func (fs *FS) Import(r io.Reader) error {
	var doc snapshotJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("dfs: import: %w", err)
	}
	if doc.Version != snapshotVersion {
		return fmt.Errorf("dfs: import: unsupported snapshot version %d", doc.Version)
	}
	shardFiles := make([]map[string]*File, len(fs.shards))
	for i := range shardFiles {
		shardFiles[i] = make(map[string]*File)
	}
	seen := make(map[string]bool, len(doc.Files))
	clock := doc.Clock
	for _, fj := range doc.Files {
		if fj.Path == "" {
			return fmt.Errorf("dfs: import: file with empty path")
		}
		if seen[fj.Path] {
			return fmt.Errorf("dfs: import: duplicate path %q", fj.Path)
		}
		seen[fj.Path] = true
		f := &File{Path: fj.Path, Version: fj.Version, Schema: fj.Schema}
		for _, part := range fj.Parts {
			f.Parts = append(f.Parts, Partition{Data: part.Data, Records: part.Records})
		}
		if len(f.Parts) == 0 {
			f.Parts = make([]Partition, 1)
		}
		if fj.Version > clock {
			clock = fj.Version
		}
		shardFiles[shardIndex(fj.Path, len(fs.shards))][fj.Path] = f
	}
	for i := range fs.shards {
		fs.shards[i].mu.Lock()
	}
	for i := range fs.shards {
		fs.shards[i].files = shardFiles[i]
		fs.shards[i].dirty = nil
	}
	fs.version.Store(clock)
	for i := len(fs.shards) - 1; i >= 0; i-- {
		fs.shards[i].mu.Unlock()
	}
	return nil
}
