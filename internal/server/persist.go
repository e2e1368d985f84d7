package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	restore "repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/persist"
)

// Durable state layout inside the daemon's state directory:
//
//	repository.json, dfs.json   snapshot pair, rewritten only by compaction
//	wal-NNNNNN.log              meta stream: repository mutations
//	wal-sC-SSS-NNNNNN.log       shard stream S of a C-shard core: the DFS
//	                            mutations of paths routed to shard S
//
// Every core writes this one layout, a 1-shard core included (its DFS
// stream is wal-s1-000-NNNNNN.log). Routine durability is the write-ahead
// log: every committed DFS and repository mutation is journaled (see
// dfs.Journal / core.Journal) into the current segment of its stream while
// queries execute, and fsynced on the -wal-sync cadence — no drain
// barrier, no rewrite of unchanged data. One stream per DFS shard means
// appends from disjoint shards never contend on one writer. All streams
// share one epoch counter and rotate together: only compaction (periodic,
// -compact-every; manual, POST /v1/checkpoint; and shutdown) quiesces the
// system, sweeps orphaned restore/ files, rotates every stream onto a
// fresh epoch, writes the snapshot pair (tmp + rename per file), and
// finally deletes the pre-rotation segments of every stream.
//
// Replay walks persist.Segments in order: epoch-ascending, the meta
// stream first within an epoch, then the shard streams. Each record says
// which structure it mutates, so one loop applies every stream. Two shard
// streams never carry records for the same path (the shard key routes
// each path to exactly one stream), so their relative order within an
// epoch is immaterial. A directory written by an older 1-shard daemon,
// whose wal-NNNNNN.log also holds DFS records, replays through the same
// loop; appends then continue at its epoch and the first compaction folds
// it away. Stream counts are encoded in the filenames, so a directory
// written under a different -shards setting is self-describing: recovery
// replays it (each old layout is internally consistent), then bumps to a
// fresh epoch and synchronously compacts so new appends never share an
// epoch with records routed under the old layout.
//
// Crash safety does not rely on a manifest. Mutation records carry
// absolute resulting state, so recovery — load whatever snapshot pair is
// on disk, then replay every segment in order — converges to the state at
// the end of the log no matter where a compaction crashed:
//
//   - before the snapshot renames: old pair + all segments replay to the
//     rotation point;
//   - between the two renames: the newer dfs.json already contains some
//     replayed records; re-applying them is idempotent (creates overwrite,
//     deletes of missing files are no-ops, repository adds deduplicate on
//     the plan's canonical form, use-counters are absolute);
//   - after the renames but before segment deletion: same argument, both
//     files newer;
//   - mid-append anywhere: the torn final record fails its length+CRC
//     frame and is truncated off the tail. Only the final segment of each
//     stream can tear (appends only ever go to the newest epoch); a tear
//     anywhere earlier is real corruption and fails recovery.
//
// Segments are deleted only after both renames succeed, so every record
// the on-disk pair lacks is always still on disk. A crash between a WAL
// fsync and the next loses at most that window's acknowledged-in-memory
// mutations; because the streams fsync independently, such a crash can
// also strand a repository entry (meta stream) whose stored output's DFS
// create (shard stream) was lost — recovery heals the divergence by
// dropping every replayed entry whose output file is absent, and the
// orphan sweep reclaims the converse (a file whose entry was lost). The
// HTTP layer acknowledges queries only after execution, so clients see
// at-most-a-window staleness, never corruption. A workflow in flight at
// the crash may leave a prefix of its mutations in the log (exactly as a
// crashed Hadoop job leaves partial task output); recovery's orphan sweep
// reclaims its unregistered restore/ files, and re-submitting the query
// overwrites its partial user outputs.
const (
	repoStateFile = "repository.json"
	dfsStateFile  = "dfs.json"
)

// persister owns a System's durable state: the write-ahead log on the
// routine path and snapshot+truncate compaction on the rare one.
type persister struct {
	dir      string
	sys      *restore.System
	syncEach bool // fsync every record instead of batching

	// nshards is the DFS namespace shard count: the WAL runs one shard
	// stream per DFS shard plus the meta stream.
	nshards int

	// obs times WAL appends and fsyncs. The server installs it after
	// construction on purpose: recovery replay and the startup orphan sweep
	// are not live append traffic and must not skew the histograms. nil is
	// a no-op sink.
	obs *obs.Registry

	// walMu guards the current-epoch writers: appenders and flushers hold
	// it shared, compaction's rotation holds it exclusive. wals[metaStream]
	// is the meta stream and wals[1+i] DFS shard i's stream. seg is the
	// rotation epoch shared by every stream.
	walMu sync.RWMutex
	wals  []*persist.Writer
	seg   uint64

	// compactMu serializes compactions (periodic, manual, shutdown): two
	// interleaved rotations would orphan a segment's records.
	compactMu sync.Mutex

	// dirty reports mutations since the last compaction; a clean system
	// skips the snapshot entirely.
	dirty atomic.Bool

	// layoutChanged records that recovery found on-disk shard streams of a
	// different count than the configured core: newPersister forces one
	// synchronous compaction so the old layout's segments are folded into
	// a snapshot and deleted before live traffic resumes.
	layoutChanged bool

	walRecords   atomic.Int64
	walBytes     atomic.Int64
	appendErrs   atomic.Int64
	compactions  atomic.Int64
	compactBytes atomic.Int64
	swept        atomic.Int64

	recoveredRecords int
	recoveredTorn    bool
	recoveredDropped int
}

// newPersister opens (or initializes) the state directory, recovers the
// System from snapshot + log, sweeps orphans, and attaches the mutation
// journals so every later change is WAL-logged.
func newPersister(dir string, sys *restore.System, syncEach bool) (*persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	p := &persister{dir: dir, sys: sys, syncEach: syncEach, nshards: sys.FS().NumShards()}
	if err := p.recover(); err != nil {
		return nil, err
	}
	// Journals attach only after recovery: replayed records must not be
	// re-journaled, and the sweep below should be. From here on every
	// committed mutation lands in the current segment of its stream, each
	// DFS shard journaling into its own.
	js := make([]dfs.Journal, p.nshards)
	for i := range js {
		js[i] = shardJournal{p, 1 + i}
	}
	sys.FS().SetJournals(js)
	sys.Repository().SetJournal(repoJournal{p})
	p.swept.Add(int64(p.sweepOrphans()))
	if p.layoutChanged {
		// The directory holds streams written under a different shard
		// count. Replay was already correct (each layout is internally
		// consistent and epochs do not mix layouts); compacting now folds
		// it all into a snapshot and deletes the foreign-layout segments.
		if _, err := p.compact(); err != nil {
			p.close()
			return nil, fmt.Errorf("server: recompact after shard-layout change: %w", err)
		}
	}
	return p, nil
}

// recover loads the snapshot pair (if any), replays every WAL stream
// epoch-ascending (meta first within an epoch), installs the result, and
// opens the newest epoch of every stream for appending.
func (p *persister) recover() error {
	fs := p.sys.FS()
	if f, err := os.Open(filepath.Join(p.dir, dfsStateFile)); err == nil {
		ierr := fs.Import(f)
		f.Close()
		if ierr != nil {
			return fmt.Errorf("server: load %s: %w", dfsStateFile, ierr)
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	// The repository replays out-of-place and is only adopted once the log
	// has been applied; a pre-populated Config.System repository is kept
	// when no snapshot exists (fresh state dir over a warm system).
	repo := p.sys.Repository()
	if f, err := os.Open(filepath.Join(p.dir, repoStateFile)); err == nil {
		loaded, lerr := core.LoadRepository(f)
		f.Close()
		if lerr != nil {
			return fmt.Errorf("server: load %s: %w", repoStateFile, lerr)
		}
		repo = loaded
	} else if !os.IsNotExist(err) {
		return err
	}

	segs, err := persist.Segments(p.dir)
	if err != nil {
		return err
	}
	// The newest segment of each stream, the one it was appending at the
	// crash, is the only one whose tail may be repaired. Segments is in
	// replay order, so a stream's newest segment is the last one seen.
	type stream struct{ count, shard int }
	final := make(map[stream]int)
	for i, seg := range segs {
		final[stream{seg.Count, seg.Shard}] = i
		if seg.Count > 0 && seg.Count != p.nshards {
			p.layoutChanged = true
		}
	}
	for i, seg := range segs {
		// A tear anywhere but a stream's final segment is real corruption:
		// fail without modifying the file, so the evidence (and the fatal
		// error) survives restarts instead of the next boot silently
		// applying the later segments over a hole.
		isFinal := final[stream{seg.Count, seg.Shard}] == i
		n, torn, rerr := persist.ReplayFile(seg.Path, func(rec persist.Record) error {
			switch {
			case rec.DFS != nil:
				return fs.Apply(*rec.DFS)
			case rec.Repo != nil:
				return repo.Apply(*rec.Repo)
			}
			return nil // empty record: tolerated for forward compatibility
		}, isFinal)
		if rerr != nil {
			return fmt.Errorf("server: replay %s: %w", seg.Path, rerr)
		}
		p.recoveredRecords += n
		if torn {
			if !isFinal {
				return fmt.Errorf("server: replay %s: torn record in a non-final segment", seg.Path)
			}
			p.recoveredTorn = true
		}
	}

	// Heal cross-stream divergence: with independent fsync tails, a crash
	// can persist an entry's meta-stream add while losing its output's
	// shard-stream create. An entry whose stored output is gone can never
	// serve a rewrite; drop it (deterministically — replaying the same
	// directory again re-drops it) rather than let a later match read a
	// missing file. The converse divergence (file without entry) is an
	// orphan and is reclaimed by the post-recovery sweep.
	for _, e := range repo.All() {
		if !fs.Exists(e.OutputPath) {
			repo.Remove(e.ID)
			p.recoveredDropped++
		}
	}

	// Install the replayed repository and advance seq/namespace counters
	// past everything the log mentioned.
	p.sys.AdoptRepository(repo)

	// Append to the newest epoch (tail-truncated), or start the first. A
	// shard-layout change instead bumps to a fresh epoch: new appends are
	// routed under the new shard count and must never share an epoch with
	// records routed under the old one (replay order within an epoch is
	// meaningful only within a single layout).
	p.seg = 1
	if len(segs) > 0 {
		p.seg = segs[len(segs)-1].Epoch
	}
	if p.layoutChanged {
		p.seg++
	}
	if p.wals, err = p.openStreams(p.seg); err != nil {
		return err
	}
	// Force one compaction after restart: whatever the log holds (or a
	// missing snapshot) is folded into a fresh pair on the first interval.
	p.dirty.Store(true)
	return nil
}

// metaStream indexes the meta stream in persister.wals; DFS shard i's
// stream is 1+i.
const metaStream = 0

// openStreams opens every stream's segment at epoch: the meta stream, then
// one per DFS shard. On error it closes what it opened.
func (p *persister) openStreams(epoch uint64) ([]*persist.Writer, error) {
	ws := make([]*persist.Writer, 1+p.nshards)
	for k := range ws {
		count, shard := 0, 0
		if k != metaStream {
			count, shard = p.nshards, k-1
		}
		w, err := persist.OpenWriter(persist.SegmentPath(p.dir, count, shard, epoch), p.syncEach)
		if err != nil {
			closeStreams(ws[:k])
			return nil, err
		}
		ws[k] = w
	}
	return ws, nil
}

// closeStreams flushes and closes every writer, returning the first error.
func closeStreams(ws []*persist.Writer) error {
	var err error
	for _, w := range ws {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// shardJournal and repoJournal forward committed mutations into the WAL. They
// are called synchronously under the lock that committed the mutation (the
// DFS shard's write lock, the repository's), so record order in each stream
// is exactly commit order for everything that stream carries: per-path
// order in a shard stream, repository order in the meta stream. shardJournal
// routes one DFS shard's mutations into that shard's stream.
type shardJournal struct {
	p      *persister
	stream int
}

func (j shardJournal) Record(m dfs.Mutation) { j.p.append(j.stream, persist.Record{DFS: &m}) }

type repoJournal struct{ p *persister }

func (j repoJournal) Record(m core.Mutation) { j.p.append(metaStream, persist.Record{Repo: &m}) }

// append logs one record to the current segment of the given stream.
// Journal hooks cannot return errors; a failed append (disk full, an
// oversized record, a closed writer during a shutdown race) is counted and
// a sticky writer error resurfaces on the next flush or compaction.
func (p *persister) append(stream int, rec persist.Record) {
	t := time.Now()
	p.walMu.RLock()
	n, err := p.wals[stream].Append(rec)
	p.walMu.RUnlock()
	p.obs.ObserveWALAppend(time.Since(t))
	p.account(n, err)
}

func (p *persister) account(n int, err error) {
	if err != nil {
		p.appendErrs.Add(1)
		// The mutation now exists only in memory: the system is dirtier
		// than ever, and the next compaction's snapshot is the only thing
		// that can make it durable — it must not be skipped as a no-op.
		p.dirty.Store(true)
		return
	}
	p.walRecords.Add(1)
	p.walBytes.Add(int64(n))
	p.dirty.Store(true)
}

// flush makes every record appended so far durable, across all streams.
// This is the routine checkpoint: no lease, no drain, cost proportional to
// the mutations since the last flush.
func (p *persister) flush() error {
	t := time.Now()
	p.walMu.RLock()
	defer p.walMu.RUnlock()
	var err error
	for _, w := range p.wals {
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
	}
	p.obs.ObserveWALFsync(time.Since(t))
	return err
}

// compact is the rare, heavyweight checkpoint: under the system's
// universal lease it sweeps orphaned restore/ files, rotates every WAL
// stream onto a fresh epoch, writes the snapshot pair, and deletes the
// pre-rotation segments of every stream (including any foreign-layout
// shard streams). It reports whether a compaction actually ran — a clean
// system (no mutations since the last one) skips entirely.
func (p *persister) compact() (bool, error) {
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	if !p.dirty.Load() {
		return false, nil
	}
	err := p.sys.Quiesce(func() error {
		// Sweep first so the snapshot is garbage-free; the deletions are
		// journaled into the outgoing segments, which the snapshot covers.
		p.swept.Add(int64(p.sweepOrphans()))

		p.walMu.Lock()
		next, err := p.openStreams(p.seg + 1)
		if err != nil {
			p.walMu.Unlock()
			return err
		}
		old := p.wals
		p.wals = next
		p.seg++
		p.walMu.Unlock()
		// A Close failure means an outgoing segment is missing records (a
		// sticky write error dropped them on disk, though they are all in
		// the quiesced in-memory state). The snapshot below supersedes the
		// damaged segments entirely, so press on — aborting here would keep
		// the hole on disk; the error is surfaced after the state is safe.
		closeErr := closeStreams(old)

		written, err := p.writeSnapshot()
		if err != nil {
			return err
		}
		// Only now are the pre-rotation segments redundant: the renamed
		// pair covers every record they held, whatever layout wrote them.
		if _, err := persist.RemoveSegmentsBelow(p.dir, p.seg); err != nil {
			return err
		}
		p.sys.FS().TakeDirty()
		p.dirty.Store(false)
		p.compactions.Add(1)
		p.compactBytes.Add(written)
		if closeErr != nil {
			return fmt.Errorf("server: compact: close wal (state healed by snapshot): %w", closeErr)
		}
		return nil
	})
	return true, err
}

// writeSnapshot writes the repository+DFS pair via tmp files and renames
// (dfs first, repository second — recovery tolerates the torn middle, see
// the package comment). Returns the bytes written. Caller must hold the
// universal lease.
func (p *persister) writeSnapshot() (int64, error) {
	repoTmp, err := os.CreateTemp(p.dir, repoStateFile+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(repoTmp.Name())
	dfsTmp, err := os.CreateTemp(p.dir, dfsStateFile+".tmp*")
	if err != nil {
		repoTmp.Close()
		return 0, err
	}
	defer os.Remove(dfsTmp.Name())

	err = p.sys.Repository().Save(repoTmp)
	if err == nil {
		err = p.sys.FS().Export(dfsTmp)
	}
	var written int64
	for _, f := range []*os.File{repoTmp, dfsTmp} {
		if st, serr := f.Stat(); serr == nil {
			written += st.Size()
		}
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return 0, fmt.Errorf("server: checkpoint: %w", err)
	}
	if err := os.Rename(dfsTmp.Name(), filepath.Join(p.dir, dfsStateFile)); err != nil {
		return 0, err
	}
	if err := os.Rename(repoTmp.Name(), filepath.Join(p.dir, repoStateFile)); err != nil {
		return 0, err
	}
	// The renames must be durable before the caller may delete the
	// segments they supersede — directory metadata does not order itself.
	return written, persist.SyncDir(p.dir)
}

// sweepOrphans deletes restore/ files no repository entry references:
// temps and sub-job outputs of failed or registration-disabled workflows,
// and (at recovery) files stranded by a crash mid-workflow. Runs at
// startup and during every compaction (under the universal lease, so no
// in-flight execution can be using an unreferenced file). Returns the
// number of files deleted.
func (p *persister) sweepOrphans() int {
	refs := make(map[string]bool)
	for _, e := range p.sys.Repository().All() {
		refs[e.OutputPath] = true
		for path := range e.InputVersions {
			refs[path] = true
		}
	}
	fs := p.sys.FS()
	swept := 0
	for _, path := range fs.List("restore/") {
		if !refs[path] {
			if fs.Delete(path) == nil {
				swept++
			}
		}
	}
	return swept
}

// close flushes and closes the current segment of every stream. Appends
// from workers still draining in the background after a timed-out shutdown
// hit the writers' sticky errors and are dropped — exactly the
// never-acknowledged work a supervisor kill would have lost anyway.
func (p *persister) close() error {
	p.walMu.Lock()
	defer p.walMu.Unlock()
	return closeStreams(p.wals)
}

// WALStats describes the persistence subsystem in GET /v1/metrics.
type WALStats struct {
	// Segment is the current WAL rotation epoch (shared by every stream);
	// Streams how many append streams the layout runs, always 1 meta + N
	// shard streams for an N-shard core; Records/Bytes count appends since
	// daemon start (across rotations, summed over streams).
	Segment uint64 `json:"segment"`
	Streams int    `json:"streams"`
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
	// AppendErrors counts records dropped by a failed append (sticky
	// writer errors surface on the next flush/compaction too).
	AppendErrors int64 `json:"appendErrors"`
	// Compactions/CompactBytes count snapshot+truncate cycles and the
	// snapshot bytes they wrote; TempFilesSwept the orphaned restore/
	// files reclaimed by the recovery and compaction sweeps.
	Compactions    int64 `json:"compactions"`
	CompactBytes   int64 `json:"compactBytes"`
	TempFilesSwept int64 `json:"tempFilesSwept"`
	// DirtyFiles is how many DFS files changed since the last compaction
	// (what the next snapshot must newly capture).
	DirtyFiles int `json:"dirtyFiles"`
	// RecoveredRecords/RecoveredTorn describe the startup replay: how many
	// log records were applied over the snapshot, and whether a torn final
	// record was truncated. RecoveredDroppedEntries counts replayed
	// repository entries dropped because their stored output's DFS create
	// was lost to cross-stream fsync divergence.
	RecoveredRecords        int  `json:"recoveredRecords"`
	RecoveredTorn           bool `json:"recoveredTorn"`
	RecoveredDroppedEntries int  `json:"recoveredDroppedEntries,omitempty"`
}

func (p *persister) stats() *WALStats {
	p.walMu.RLock()
	seg := p.seg
	streams := len(p.wals)
	p.walMu.RUnlock()
	return &WALStats{
		Segment:                 seg,
		Streams:                 streams,
		Records:                 p.walRecords.Load(),
		Bytes:                   p.walBytes.Load(),
		AppendErrors:            p.appendErrs.Load(),
		Compactions:             p.compactions.Load(),
		CompactBytes:            p.compactBytes.Load(),
		TempFilesSwept:          p.swept.Load(),
		DirtyFiles:              p.sys.FS().DirtyCount(),
		RecoveredRecords:        p.recoveredRecords,
		RecoveredTorn:           p.recoveredTorn,
		RecoveredDroppedEntries: p.recoveredDropped,
	}
}
