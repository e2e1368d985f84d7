// Package persist implements the write-ahead log behind restored's durable
// state: length+checksum-framed mutation records appended to numbered
// segment files, with fsync batching on the write path and torn-tail
// detection on replay.
//
// The daemon's state directory holds a snapshot pair (repository.json +
// dfs.json, written only by compaction) plus the WAL. The WAL has one
// layout for every core: a meta stream of repository mutations
// (wal-NNNNNN.log) and one stream per DFS shard of a C-shard core
// (wal-sC-SSS-NNNNNN.log). Every stream's segments are numbered by a shared
// epoch that advances at compaction. Segments lists all of them in replay
// order. The durability contract:
//
//   - A record is durable once its segment has been fsynced (Writer.Flush,
//     or every append in per-record sync mode). A crash loses at most the
//     records buffered since the last sync.
//   - A crash mid-append leaves a torn final record; ReplayFile detects it
//     by the frame's length+CRC32 and truncates the segment back to the
//     last intact record, so the tail never corrupts recovery or later
//     appends.
//   - Records carry absolute resulting state (see dfs.Mutation and
//     core.Mutation), so replaying every on-disk segment in order over
//     whatever snapshot pair survives converges to the state at the end of
//     the log. That convergence is what makes compaction crash-safe without
//     a manifest: the compactor may crash between writing the new snapshot
//     and deleting old segments at any point, and recovery still lands on
//     the right state.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/dfs"
)

// Record is one WAL entry: exactly one of the two mutation kinds. Each
// record names the structure it mutates, so replay applies a record the
// same way whichever stream holds it. Order is kept per stream only:
// repository mutations in the meta stream, a path's DFS mutations in its
// shard's stream. A 1-shard directory from an older daemon holds DFS
// records in its wal-NNNNNN.log too; they replay through the same loop.
type Record struct {
	DFS  *dfs.Mutation  `json:"dfs,omitempty"`
	Repo *core.Mutation `json:"repo,omitempty"`
}

// Frame layout: a fixed header of payload length and CRC32 (IEEE) of the
// payload, then the JSON payload itself. Little-endian, matching no
// particular tradition beyond being explicit.
const frameHeaderSize = 8

// maxRecordSize bounds a single record's payload. The writer refuses a
// larger record and the reader treats a larger length field as a torn or
// corrupt tail, both through checkRecordSize.
const maxRecordSize = 1 << 30

// checkRecordSize is the one bound on a frame's payload length, shared by
// encode and ReplayFile: a record the reader would discard as a tear must
// never be appended and acknowledged.
func checkRecordSize(n uint64) error {
	if n > maxRecordSize {
		return fmt.Errorf("persist: record payload of %d bytes exceeds the %d-byte frame limit", n, maxRecordSize)
	}
	return nil
}

// encode frames one record.
func encode(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("persist: encode record: %w", err)
	}
	if err := checkRecordSize(uint64(len(payload))); err != nil {
		return nil, err
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	return buf, nil
}

// Segment names: the meta stream's, then shard stream Shard of a
// Count-shard core's. Both end in a zero-padded epoch. The shard name
// records the shard count it was written under, so recovery can tell a
// directory written at a different -shards setting from its file names.
const (
	metaPattern  = "wal-%06d.log"
	shardPattern = "wal-s%d-%03d-%06d.log"
)

// Segment is one on-disk WAL segment. Count is the shard count of the core
// that wrote it and Shard its shard stream; the meta stream has Count 0.
// Sorting by (Epoch, Count, Shard) is replay order: the meta stream first
// within an epoch, then the shard streams. Shard order within an epoch is
// for determinism only, because two shard streams never carry records for
// the same path.
type Segment struct {
	Epoch uint64
	Count int
	Shard int
	Path  string
}

// SegmentPath returns the path of the epoch segment of stream (count,
// shard) inside dir; count 0 names the meta stream.
func SegmentPath(dir string, count, shard int, epoch uint64) string {
	name := fmt.Sprintf(metaPattern, epoch)
	if count > 0 {
		name = fmt.Sprintf(shardPattern, count, shard, epoch)
	}
	return filepath.Join(dir, name)
}

// Segments lists every WAL segment in dir, of every stream and shard
// count, in replay order.
func Segments(dir string) ([]Segment, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	var out []Segment
	for _, p := range names {
		s := Segment{Path: p}
		base := filepath.Base(p)
		if _, err := fmt.Sscanf(base, shardPattern, &s.Count, &s.Shard, &s.Epoch); err != nil {
			s.Count, s.Shard = 0, 0
			if _, err := fmt.Sscanf(base, metaPattern, &s.Epoch); err != nil {
				continue // not ours
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.Count != b.Count {
			return a.Count < b.Count
		}
		return a.Shard < b.Shard
	})
	return out, nil
}

// SyncDir fsyncs a directory, making its entry operations — segment
// creations, snapshot renames — durable. Without it, a crash can persist a
// later unlink but not an earlier rename (ordering of directory metadata
// is filesystem-dependent), which is exactly the window where compaction
// could otherwise lose committed records: segments deleted while the new
// snapshot pair's renames never reached disk.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: sync dir: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("persist: sync dir %s: %w", dir, serr)
	}
	return cerr
}

// RemoveSegmentsBelow deletes every segment of every stream below epoch n
// (compaction's log truncation, run only after the new snapshot pair is
// fully renamed into place). Having rotated all streams to epoch n, the
// compactor's snapshot covers everything older, including streams of an
// abandoned shard count. Returns the number removed.
func RemoveSegmentsBelow(dir string, n uint64) (int, error) {
	segs, err := Segments(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, s := range segs {
		if s.Epoch >= n {
			continue
		}
		if err := os.Remove(s.Path); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}
