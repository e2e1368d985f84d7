// Package dfs implements the simulated distributed file system that stands in
// for HDFS. Datasets are partitioned files of encoded tuple records; the FS
// tracks logical bytes, physical (replicated) bytes, record counts, and a
// version number per file so that ReStore's repository can detect when a
// stored job output has been invalidated by changes to its inputs
// (eviction Rule 4 in the paper, §5).
//
// Invariants the rest of the system relies on:
//
//   - Committed partition data is copy-on-write and never mutated in place,
//     so readers and snapshots may share the slices under the read lock.
//   - File versions only ever advance: Create assigns a fresh FS-clock value
//     and Delete bumps the clock, so a path recreated after deletion never
//     reuses a version Rule-4 comparisons have already seen. The clock is
//     FS-global (one atomic counter across every shard), so versions are
//     globally monotonic — the leaseless result fast path brackets its reads
//     with version comparisons and depends on exactly that.
//   - Every mutation is journaled (SetJournals, one journal per shard) in
//     its commit order, under the same shard write lock that applied it, as
//     an absolute-state Mutation record; replaying a snapshot plus the
//     journaled suffix (Apply) reconstructs the FS exactly.
//     TakeDirty/DirtyCount track which files changed since the last snapshot.
//
// The namespace is sharded (NewSharded): each path is owned by exactly one
// shard — chosen by shardIndex (route.go), so a root's whole subtree
// colocates — and each shard has its own lock, files map, journal, and dirty
// feeds; the daemon writes one WAL stream per shard. Mutations to paths in
// different shards never contend; operations that span the namespace (List,
// Export, Import) take every shard lock in ascending order. The namespace
// and the WAL streams are the only sharded state: lease admission and the
// repository above the DFS are one domain at every shard count. New()
// builds the single-shard FS.
package dfs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// DefaultReplication is the HDFS default 3-way replication the paper's
// cluster used.
const DefaultReplication = 3

// Partition is one part-file of a dataset (what a single task wrote).
type Partition struct {
	Data    []byte
	Records int64
}

// File is a dataset: an ordered list of partitions plus bookkeeping.
type File struct {
	Path    string
	Parts   []Partition
	Version uint64 // bumped whenever the file is (re)written
	// Schema optionally records the column layout of the dataset so that
	// loads of materialized intermediates keep column names.
	Schema types.Schema
}

// Bytes returns the logical (pre-replication) size of the file.
func (f *File) Bytes() int64 {
	var n int64
	for _, p := range f.Parts {
		n += int64(len(p.Data))
	}
	return n
}

// Records returns the number of tuple records in the file.
func (f *File) Records() int64 {
	var n int64
	for _, p := range f.Parts {
		n += p.Records
	}
	return n
}

// Stat is a point-in-time description of a file.
type Stat struct {
	Path       string
	Bytes      int64
	Records    int64
	Partitions int
	Version    uint64
}

// fsShard is one independently locked slice of the namespace: the files
// whose paths route to it, plus that slice's journal and dirty feeds.
type fsShard struct {
	mu         sync.RWMutex
	files      map[string]*File
	journal    Journal
	dirty      map[string]struct{}
	evictDirty map[string]struct{}
}

// FS is the simulated distributed file system. All methods are safe for
// concurrent use.
//
// Partition data is copy-on-write: tasks buffer locally and CommitPartition
// installs the whole byte slice at once; committed slices are never mutated
// in place afterwards. That discipline is what lets readers
// (ReadPartitionRaw, and the decoded strings that alias its bytes) and the
// snapshot Export share slices under the read lock while concurrent
// writers to *other* paths keep committing — a snapshot never observes a
// half-written partition, only a partition that is entirely present or
// entirely absent.
type FS struct {
	shards  []fsShard
	version atomic.Uint64
	// replication affects physical-byte accounting only; atomic so
	// SetReplication needs no shard lock.
	replication atomic.Int64

	// Counters accumulate across the lifetime of the FS; atomics so the
	// read path (ReadPartitionRaw) needs only the read lock and concurrent
	// map tasks of parallel workflows never serialize on a shard lock.
	bytesWritten atomic.Int64 // logical bytes written
	bytesRead    atomic.Int64 // logical bytes read
}

// New creates an empty single-shard FS with default block size and
// replication — the single-domain configuration, and the differential
// oracle the sharded configurations are tested against.
func New() *FS { return NewSharded(1) }

// NewSharded creates an empty FS whose namespace is split over n
// independently locked shards (n < 1 is clamped to 1). Shard routing is
// shardIndex; each shard journals to its own WAL stream.
func NewSharded(n int) *FS {
	if n < 1 {
		n = 1
	}
	fs := &FS{shards: make([]fsShard, n)}
	fs.replication.Store(DefaultReplication)
	for i := range fs.shards {
		fs.shards[i].files = make(map[string]*File)
	}
	return fs
}

// NumShards returns how many namespace shards the FS was built with.
func (fs *FS) NumShards() int { return len(fs.shards) }

// shardOf returns the shard owning path.
func (fs *FS) shardOf(path string) *fsShard {
	return &fs.shards[shardIndex(path, len(fs.shards))]
}

// Replication returns the configured replication factor.
func (fs *FS) Replication() int { return int(fs.replication.Load()) }

// SetReplication overrides the replication factor (affects physical-byte
// accounting only).
func (fs *FS) SetReplication(r int) {
	if r < 1 {
		r = 1
	}
	fs.replication.Store(int64(r))
}

// Exists reports whether a file exists.
func (fs *FS) Exists(path string) bool {
	sh := fs.shardOf(path)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.files[path]
	return ok
}

// StatFile returns metadata for the file at path.
func (fs *FS) StatFile(path string) (Stat, error) {
	sh := fs.shardOf(path)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.files[path]
	if !ok {
		return Stat{}, fmt.Errorf("dfs: %s: %w", path, ErrNotExist)
	}
	return Stat{Path: path, Bytes: f.Bytes(), Records: f.Records(), Partitions: len(f.Parts), Version: f.Version}, nil
}

// ErrNotExist is returned when a path is absent.
var ErrNotExist = fmt.Errorf("file does not exist")

// Create makes (or truncates) a file with the given number of partitions and
// returns its new version. The version comes off the FS-global clock, so
// versions stay globally monotonic across shards.
func (fs *FS) Create(path string, partitions int) (uint64, error) {
	if path == "" {
		return 0, fmt.Errorf("dfs: empty path")
	}
	if partitions < 1 {
		partitions = 1
	}
	sh := fs.shardOf(path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v := fs.version.Add(1)
	sh.files[path] = &File{Path: path, Parts: make([]Partition, partitions), Version: v}
	fs.noteLocked(sh, Mutation{Op: MutCreate, Path: path, Version: v, Partitions: partitions})
	return v, nil
}

// SetSchema attaches a schema to an existing file.
func (fs *FS) SetSchema(path string, schema types.Schema) error {
	sh := fs.shardOf(path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.files[path]
	if !ok {
		return fmt.Errorf("dfs: %s: %w", path, ErrNotExist)
	}
	f.Schema = schema
	fs.noteLocked(sh, Mutation{Op: MutSchema, Path: path, Schema: schema})
	return nil
}

// SchemaOf returns the schema recorded for the file (possibly empty).
func (fs *FS) SchemaOf(path string) (types.Schema, error) {
	sh := fs.shardOf(path)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.files[path]
	if !ok {
		return types.Schema{}, fmt.Errorf("dfs: %s: %w", path, ErrNotExist)
	}
	return f.Schema, nil
}

// CommitPartition atomically installs the bytes for one partition of a file
// created with Create. Tasks buffer locally and commit once, keeping the FS
// lock out of the encode path.
func (fs *FS) CommitPartition(path string, idx int, data []byte, records int64) error {
	sh := fs.shardOf(path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.files[path]
	if !ok {
		return fmt.Errorf("dfs: commit to %s: %w", path, ErrNotExist)
	}
	if idx < 0 || idx >= len(f.Parts) {
		return fmt.Errorf("dfs: commit to %s: partition %d out of range [0,%d)", path, idx, len(f.Parts))
	}
	f.Parts[idx] = Partition{Data: data, Records: records}
	fs.bytesWritten.Add(int64(len(data)))
	fs.noteLocked(sh, Mutation{Op: MutCommit, Path: path, Part: idx, Data: data, Records: records})
	return nil
}

// Delete removes a file. Deleting a missing file is an error so that callers
// notice double-deletes.
func (fs *FS) Delete(path string) error {
	sh := fs.shardOf(path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.files[path]; !ok {
		return fmt.Errorf("dfs: delete %s: %w", path, ErrNotExist)
	}
	delete(sh.files, path)
	v := fs.version.Add(1)
	fs.noteLocked(sh, Mutation{Op: MutDelete, Path: path, Version: v})
	return nil
}

// Version returns the current version of the file at path, or 0 with
// ErrNotExist if absent. ReStore snapshots input versions when storing a job
// output and compares them later to detect invalidation.
func (fs *FS) Version(path string) (uint64, error) {
	sh := fs.shardOf(path)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.files[path]
	if !ok {
		return 0, fmt.Errorf("dfs: %s: %w", path, ErrNotExist)
	}
	return f.Version, nil
}

// List returns the paths with the given prefix, sorted. Shards are scanned
// one at a time, so the listing is per-shard consistent; callers needing a
// globally consistent view (recovery sweeps, counter advancement) run under
// the system's universal lease, where nothing mutates concurrently.
func (fs *FS) List(prefix string) []string {
	var out []string
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.RLock()
		for p := range sh.files {
			if strings.HasPrefix(p, prefix) {
				out = append(out, p)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Partitions returns the number of partitions of a file.
func (fs *FS) Partitions(path string) (int, error) {
	sh := fs.shardOf(path)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.files[path]
	if !ok {
		return 0, fmt.Errorf("dfs: %s: %w", path, ErrNotExist)
	}
	return len(f.Parts), nil
}

// ReadPartitionRaw returns the committed payload bytes of one partition in
// the encoded wire format and charges the read counters. Read lock only:
// committed partition data is immutable (copy-on-write), so concurrent map
// tasks of parallel workflows read without serializing. Map tasks decode the
// bytes in place (types.NewSliceReader, whose strings alias them); the
// fleet coordinator ships them to workers and assembles replay payloads
// from stored sub-job outputs. Callers must not mutate the returned slice.
func (fs *FS) ReadPartitionRaw(path string, idx int) ([]byte, error) {
	sh := fs.shardOf(path)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: open %s: %w", path, ErrNotExist)
	}
	if idx < 0 || idx >= len(f.Parts) {
		return nil, fmt.Errorf("dfs: open %s: partition %d out of range [0,%d)", path, idx, len(f.Parts))
	}
	data := f.Parts[idx].Data
	fs.bytesRead.Add(int64(len(data)))
	return data, nil
}

// ReadAll decodes every tuple in the file, in partition order. Intended for
// tests and result verification, not the execution hot path. It keeps every
// tuple, so it clones each one the slice reader lends.
func (fs *FS) ReadAll(path string) ([]types.Tuple, error) {
	n, err := fs.Partitions(path)
	if err != nil {
		return nil, err
	}
	var out []types.Tuple
	for i := 0; i < n; i++ {
		data, err := fs.ReadPartitionRaw(path, i)
		if err != nil {
			return nil, err
		}
		r := types.NewSliceReader(data)
		for {
			t, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			out = append(out, t.Clone())
		}
	}
	return out, nil
}

// WriteTuples creates a single-partition file holding the given tuples.
// Convenience for tests and data generators.
func (fs *FS) WriteTuples(path string, schema types.Schema, tuples []types.Tuple) error {
	return fs.WritePartitioned(path, schema, tuples, 1)
}

// WritePartitioned creates a file with the tuples spread round-robin over n
// partitions, so the MapReduce engine schedules n map tasks against it.
// One types.Framer frames every partition in turn.
func (fs *FS) WritePartitioned(path string, schema types.Schema, tuples []types.Tuple, n int) error {
	if n < 1 {
		n = 1
	}
	if _, err := fs.Create(path, n); err != nil {
		return err
	}
	var f types.Framer
	defer f.Release()
	for i := 0; i < n; i++ {
		for j := i; j < len(tuples); j += n {
			f.Write(tuples[j])
		}
		data, records := f.Take()
		if err := fs.CommitPartition(path, i, data, records); err != nil {
			return err
		}
	}
	return fs.SetSchema(path, schema)
}

// Counters returns cumulative logical bytes written and read.
func (fs *FS) Counters() (written, read int64) {
	return fs.bytesWritten.Load(), fs.bytesRead.Load()
}

// TotalBytes sums the logical bytes of the files at the given paths,
// skipping any that are missing.
func (fs *FS) TotalBytes(paths ...string) int64 {
	var n int64
	for _, p := range paths {
		sh := fs.shardOf(p)
		sh.mu.RLock()
		if f, ok := sh.files[p]; ok {
			n += f.Bytes()
		}
		sh.mu.RUnlock()
	}
	return n
}
