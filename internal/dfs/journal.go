package dfs

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// This file is the FS half of the incremental-persistence subsystem: instead
// of re-exporting the whole filesystem on every checkpoint (Export), the FS
// emits one append-only Mutation record per committed change and tracks
// which files are dirty since the last snapshot. A write-ahead log
// (internal/persist) appends the records durably while queries execute;
// replaying them over the last snapshot (Apply) reconstructs the FS exactly.
// Each namespace shard has its own journal hook and dirty feeds, so the
// persister runs one WAL stream per shard (one stream for a 1-shard FS) with
// no cross-shard ordering requirement: a path's records are totally ordered
// within its own shard's stream, and records for different paths commute
// (they carry absolute state and touch disjoint keys).

// MutationOp enumerates the journaled FS mutations.
type MutationOp string

// Mutation operations. Every mutating FS method maps to exactly one op.
const (
	// MutCreate records Create: a file (re)created with empty partitions.
	MutCreate MutationOp = "create"
	// MutCommit records CommitPartition: one partition's bytes installed.
	MutCommit MutationOp = "commit"
	// MutSchema records SetSchema.
	MutSchema MutationOp = "schema"
	// MutDelete records Delete.
	MutDelete MutationOp = "delete"
)

// Mutation is one committed FS change, journaled in apply order. Records
// carry absolute resulting state (the assigned file version, the full
// partition bytes) rather than deltas, so replaying any suffix of the log —
// even records already reflected in a newer snapshot — converges to the
// state at the end of the log. That idempotence is what makes the
// compactor's snapshot-then-truncate sequence crash-safe at every
// intermediate point (see internal/server/persist.go).
type Mutation struct {
	Op   MutationOp `json:"op"`
	Path string     `json:"path"`
	// Version is the file version assigned by Create, or the FS clock after
	// a Delete (deletes bump the clock so recreations get fresh versions).
	Version uint64 `json:"version,omitempty"`
	// Partitions is the partition count of a created file.
	Partitions int `json:"partitions,omitempty"`
	// Part, Data, and Records describe a committed partition. Data aliases
	// the committed copy-on-write slice and must not be modified.
	Part    int    `json:"part,omitempty"`
	Data    []byte `json:"data,omitempty"`
	Records int64  `json:"records,omitempty"`
	// Schema is the layout attached by SetSchema.
	Schema types.Schema `json:"schema,omitempty"`
}

// Journal receives every committed FS mutation, in commit order. Record is
// called synchronously while the owning shard's write lock is held, so the
// order of Record calls on one journal is exactly the order that shard's
// mutations took effect; implementations must be fast (buffer in memory) and
// must not call back into the FS.
type Journal interface {
	Record(m Mutation)
}

// SetJournals attaches one journal per shard: js[i] receives exactly shard
// i's mutations, each under shard i's write lock, so the Record calls on one
// journal are totally ordered and never concurrent. len(js) must equal
// NumShards. Attach only when the FS is quiescent (daemon startup, after
// recovery): mutations committed before the attach are not replayed to the
// journals.
func (fs *FS) SetJournals(js []Journal) {
	if len(js) != len(fs.shards) {
		panic(fmt.Sprintf("dfs: SetJournals: %d journals for %d shards", len(js), len(fs.shards)))
	}
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.Lock()
		sh.journal = js[i]
		sh.mu.Unlock()
	}
}

// noteLocked records one committed mutation: it marks the file dirty (for
// both the snapshot and eviction consumers) and forwards the record to the
// shard's journal. Called with sh.mu held by
// every mutating method, and sh must own m.Path.
func (fs *FS) noteLocked(sh *fsShard, m Mutation) {
	if sh.dirty == nil {
		sh.dirty = make(map[string]struct{})
	}
	sh.dirty[m.Path] = struct{}{}
	markEvictDirtyLocked(sh, m.Path)
	if sh.journal != nil {
		sh.journal.Record(m)
	}
}

// markEvictDirtyLocked adds the path to the shard's eviction mutation feed.
// Called with sh.mu held.
func markEvictDirtyLocked(sh *fsShard, path string) {
	if sh.evictDirty == nil {
		sh.evictDirty = make(map[string]struct{})
	}
	sh.evictDirty[path] = struct{}{}
}

// TakeDirty returns the sorted paths mutated since the last TakeDirty (or
// since the FS was created/imported) and resets the tracking — the compactor
// calls it when a snapshot has captured everything, so DirtyCount afterwards
// reports only post-snapshot churn. A path stays dirty even if later deleted:
// the deletion itself is a pending change the next snapshot must capture.
func (fs *FS) TakeDirty() []string {
	var out []string
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.Lock()
		dirty := sh.dirty
		sh.dirty = nil
		sh.mu.Unlock()
		for p := range dirty {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// TakeEvictionDirty returns the sorted paths mutated since the last
// TakeEvictionDirty and resets the feed across every shard. This is the
// eviction subsystem's mutation feed: consumers run Rule-4 staleness checks
// only on repository entries touching the returned paths, so per-query
// invalidation work scales with what changed rather than with repository
// size. The feed is independent of the snapshot consumer
// (TakeDirty/DirtyCount); any one taker owns a returned batch exclusively.
func (fs *FS) TakeEvictionDirty() []string {
	var out []string
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.Lock()
		taken := sh.evictDirty
		sh.evictDirty = nil
		sh.mu.Unlock()
		for p := range taken {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// DirtyCount reports how many files are dirty (metrics poll this on every
// scrape, so it counts without materializing the paths).
func (fs *FS) DirtyCount() int {
	n := 0
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.RLock()
		n += len(sh.dirty)
		sh.mu.RUnlock()
	}
	return n
}

// advanceClock lifts the FS-global version clock to at least v (CAS-max, so
// concurrent replays of different shards' streams may race freely).
func (fs *FS) advanceClock(v uint64) {
	for {
		cur := fs.version.Load()
		if v <= cur || fs.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Apply replays one journaled mutation, without re-journaling it. It is the
// recovery-time inverse of the Journal hook: applying a log's records in
// order over the snapshot they extend reconstructs the FS exactly. Apply is
// deliberately tolerant of records already reflected in the state (a crash
// between the compactor's snapshot rename and its log truncation makes the
// log a superset of the snapshot): creates overwrite, deletes of missing
// files are no-ops, and version fields only ever advance the FS clock.
// Because records carry absolute state, replay only needs per-path order —
// shard streams may be applied in any interleaving (order-independence is
// what the crash battery's shuffled-replay test asserts).
func (fs *FS) Apply(m Mutation) error {
	sh := fs.shardOf(m.Path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch m.Op {
	case MutCreate:
		parts := m.Partitions
		if parts < 1 {
			parts = 1
		}
		sh.files[m.Path] = &File{Path: m.Path, Parts: make([]Partition, parts), Version: m.Version}
		fs.advanceClock(m.Version)
	case MutCommit:
		f, ok := sh.files[m.Path]
		if !ok {
			return fmt.Errorf("dfs: apply commit to %s: %w", m.Path, ErrNotExist)
		}
		if m.Part < 0 || m.Part >= len(f.Parts) {
			return fmt.Errorf("dfs: apply commit to %s: partition %d out of range [0,%d)", m.Path, m.Part, len(f.Parts))
		}
		f.Parts[m.Part] = Partition{Data: m.Data, Records: m.Records}
	case MutSchema:
		f, ok := sh.files[m.Path]
		if !ok {
			return fmt.Errorf("dfs: apply schema to %s: %w", m.Path, ErrNotExist)
		}
		f.Schema = m.Schema
	case MutDelete:
		delete(sh.files, m.Path)
		fs.advanceClock(m.Version)
	default:
		return fmt.Errorf("dfs: apply: unknown mutation op %q", m.Op)
	}
	// Replayed state is not yet covered by any snapshot (the log still holds
	// it), so it counts as dirty until the next compaction — and feeds the
	// eviction consumer, which rechecks entries touching replayed paths.
	if sh.dirty == nil {
		sh.dirty = make(map[string]struct{})
	}
	sh.dirty[m.Path] = struct{}{}
	markEvictDirtyLocked(sh, m.Path)
	return nil
}
