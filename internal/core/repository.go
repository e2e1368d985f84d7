// Package core implements ReStore itself — the paper's contribution:
//
//   - a repository of stored MapReduce job outputs, each entry holding the
//     job's physical plan, the DFS filename of its output, and execution
//     statistics (§2.2);
//   - the plan matcher and rewriter (§3, Algorithm 1), which tests whether a
//     repository plan is contained in an input job's plan and rewrites the
//     job to load the stored output instead of recomputing it;
//   - the sub-job enumerator (§4), which injects Split+Store operators after
//     selected physical operators (Conservative / Aggressive / No-Heuristic)
//     so their outputs are materialized during execution;
//   - the enumerated sub-job selector (§5), which applies keep/evict rules
//     based on post-execution statistics.
//
// Concurrency and durability invariants:
//
//   - All Repository methods are safe for concurrent use. Entries pinned by
//     an in-flight execution (Pin) are never evicted — RemoveIfIdle refuses
//     both pinned entries and entries whose LastUsedSeq moved since the
//     caller's staleness check — so a stored output a rewrite reuses cannot
//     be deleted mid-run.
//   - Every committed mutation (Add, Remove/RemoveIfIdle, MarkUsed,
//     NoteOutput/ForgetOutput) is forwarded to an attached Journal in its
//     commit order; a snapshot (Save) plus the journaled suffix (Apply)
//     reconstructs the repository exactly after a crash. Pins are
//     process-local and never persisted.
//   - The match index (byCanon/ordered/byFP/unindexed) stays under the
//     repository mutex. The path-keyed state (the Rule-4 invalidation index
//     byPath and the §5 retention table) sits behind its own lock, so
//     retention notes (NoteOutput) never take the repository mutex. Lock
//     order is r.mu → paths.mu → r.jmu; methods that take a later lock
//     never hold an earlier one afterwards.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/physical"
	"repro/internal/types"
)

// Entry is one stored job output: the physical plan that produced it (ending
// in a Store), where the output lives, and statistics used for repository
// ordering and eviction.
type Entry struct {
	ID         string         `json:"id"`
	Plan       *physical.Plan `json:"plan"`
	OutputPath string         `json:"outputPath"`
	Schema     types.Schema   `json:"schema"`

	// Statistics (§2.2): sizes, execution time, and usage.
	InputBytes  int64         `json:"inputBytes"`
	OutputBytes int64         `json:"outputBytes"`
	ExecTime    time.Duration `json:"execTime"`
	UseCount    int64         `json:"useCount"`
	CreatedSeq  int64         `json:"createdSeq"`
	LastUsedSeq int64         `json:"lastUsedSeq"`

	// InputVersions snapshots the DFS version of every base input when the
	// output was stored; eviction Rule 4 compares them against the current
	// versions.
	InputVersions map[string]uint64 `json:"inputVersions"`
	// OutputVersion snapshots the stored output file's own DFS version.
	// Repository-owned files are never rewritten, but user-named outputs
	// (WithRegisterFinalOutputs) can be overwritten by a later query or
	// upload; eviction drops the entry when the version moved, so a match
	// never serves another plan's data from a recycled path. 0 means
	// unknown (entries persisted before this field existed) and skips the
	// check.
	OutputVersion uint64 `json:"outputVersion,omitempty"`

	// OwnsFile marks outputs whose files the repository manages (temps and
	// injected sub-job outputs). Evicting such an entry also deletes the
	// file; user-named outputs are only dropped from the index.
	OwnsFile bool `json:"ownsFile"`

	// terminal caches the ID of the operator feeding the entry's Store.
	terminal int
	// planOps caches len(Plan.Ops()) minus the Store for ordering.
	matchSize int
	// ix is the plan's signature/fingerprint index, computed once at finish
	// (plans are immutable once stored) and shared read-only thereafter.
	ix *physical.PlanIndex
	// termFP is the terminal operator's subtree fingerprint — the key this
	// entry is filed under in the repository's inverted match index.
	termFP physical.Fingerprint
	// indexable is false for plans containing Split operators, whose
	// traversal-side transparency the terminal fingerprint cannot summarize;
	// such entries (never produced by the enumerator, which splices Splits
	// out of candidate plans) are probed exhaustively instead.
	indexable bool
	// pins counts in-flight executions reusing this entry; guarded by the
	// repository mutex. A pinned entry (and its stored output file) must
	// not be evicted — a concurrent workflow's engine run is about to load
	// the file.
	pins int
}

// ioRatio is the input/output size ratio used as ordering metric 2a (§3):
// higher means the stored output compresses its input more.
func (e *Entry) ioRatio() float64 {
	if e.OutputBytes <= 0 {
		return float64(e.InputBytes)
	}
	return float64(e.InputBytes) / float64(e.OutputBytes)
}

// finish validates and indexes a freshly built entry. Entries also arrive
// from disk (LoadRepository, journal replay), so the plan is validated
// before anything indexes into its operators.
func (e *Entry) finish() error {
	if e.Plan == nil {
		return fmt.Errorf("core: entry %s: no plan", e.ID)
	}
	if err := e.Plan.Validate(); err != nil {
		return err
	}
	sinks := e.Plan.Sinks()
	if len(sinks) != 1 {
		return fmt.Errorf("core: entry %s: plan must have exactly one Store, has %d", e.ID, len(sinks))
	}
	if sinks[0].Path != e.OutputPath {
		return fmt.Errorf("core: entry %s: store path %q != output path %q", e.ID, sinks[0].Path, e.OutputPath)
	}
	e.terminal = sinks[0].Inputs[0]
	e.matchSize = e.Plan.Len() - 1
	if term := e.Plan.Op(e.terminal); term != nil && term.Kind == physical.OpLoad {
		return fmt.Errorf("core: entry %s: trivial Load->Store plan is not storable", e.ID)
	}
	e.ix = physical.IndexPlan(e.Plan)
	e.termFP = e.ix.Fingerprint(e.terminal)
	e.indexable = true
	for _, o := range e.Plan.Ops() {
		if o.Kind == physical.OpSplit {
			e.indexable = false
			break
		}
	}
	return nil
}

// index returns the entry plan's memoized signature/fingerprint index,
// building one on the fly for hand-assembled entries that never went
// through finish (the fresh index is not retained: entries shared across
// goroutines only ever expose the immutable index finish built).
func (e *Entry) index() *physical.PlanIndex {
	if e.ix != nil {
		return e.ix
	}
	return physical.IndexPlan(e.Plan)
}

// pathIndex is the repository's path-keyed state — the Rule-4 invalidation
// index and the §5 retention table — behind its own lock.
type pathIndex struct {
	mu sync.RWMutex
	// byPath is the inverted invalidation index: DFS path -> entries whose
	// input set or stored output touches it (exact-path keys; DFS paths are
	// flat). Eviction Rule-4 checks driven by the DFS mutation feed probe it
	// so their work scales with the mutated paths, not the repository size.
	byPath map[string][]*Entry
	// outputs tracks user-named query outputs for the §5 keep-results-for-N
	// retention mode: path -> the workflow sequence and file version that
	// last produced (or re-requested) it. Journaled (MutNoteOutput /
	// MutForgetOutput) and persisted with the repository, so retention
	// decisions survive crashes.
	outputs map[string]OutputRecord
}

// Repository holds the stored job outputs. All methods are safe for
// concurrent use.
type Repository struct {
	mu      sync.RWMutex
	entries []*Entry
	byID    map[string]*Entry // O(1) Get/Pin/MarkUsed; same lifetime as entries
	byCanon map[string]*Entry // dedup on plan canonical form
	// ordered maintains the §3 match-scan order incrementally (ordered
	// insert on Add, removal on Remove) — Ordered() is a copy, never a
	// re-sort. Sound because every matchOrderLess key (matchSize, byte
	// ratio, ExecTime, ID) is immutable after Add; MarkUsed only touches
	// usage counters.
	ordered []*Entry
	// byFP is the inverted match index: entry-terminal subtree fingerprint
	// -> entries filed under it. Maintained under mu by Add/Remove (and so
	// rebuilt for free by AdoptRepository/journal replay, which go through
	// Add). FindBestMatchProbed probes it with the input plan's fingerprint
	// set instead of scanning every entry.
	byFP map[physical.Fingerprint][]*Entry
	// unindexed lists entries excluded from byFP (Split-bearing plans);
	// every probe also verifies these, preserving exact §3 semantics.
	unindexed []*Entry
	// paths holds the path-keyed state (see pathIndex).
	paths  pathIndex
	nextID int
	// jmu is a leaf mutex guarding the journal pointer, so mutations
	// committed under the paths lock (NoteOutput) and mutations committed
	// under r.mu (Add, Remove, MarkUsed) both journal without either lock
	// needing the other. Always the last lock taken.
	jmu sync.Mutex
	// journal, when attached, receives every committed mutation (see
	// journal.go) — the repository half of the write-ahead log.
	journal Journal
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		byID:    make(map[string]*Entry),
		byCanon: make(map[string]*Entry),
		byFP:    make(map[physical.Fingerprint][]*Entry),
		paths: pathIndex{
			byPath:  make(map[string][]*Entry),
			outputs: make(map[string]OutputRecord),
		},
	}
}

// touchedPaths returns the DFS paths the entry is filed under in byPath:
// every input path plus the stored output itself (the output key is what
// lets a deleted or overwritten stored file invalidate its entry, and a
// deleted entry's file invalidate entries reading it).
func (e *Entry) touchedPaths() []string {
	out := make([]string, 0, len(e.InputVersions)+1)
	for p := range e.InputVersions {
		out = append(out, p)
	}
	if _, ok := e.InputVersions[e.OutputPath]; !ok {
		out = append(out, e.OutputPath)
	}
	return out
}

// Len returns the number of entries.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Add registers an entry. If an entry with an identical plan already exists
// the repository keeps the existing one (its output is the same data) and
// returns it with added=false.
func (r *Repository) Add(e *Entry) (*Entry, bool, error) {
	if err := e.finish(); err != nil {
		return nil, false, err
	}
	canon := e.Plan.Canonical()
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byCanon[canon]; ok {
		return prev, false, nil
	}
	if e.ID == "" {
		r.nextID++
		e.ID = fmt.Sprintf("entry-%d", r.nextID)
	}
	if _, dup := r.byID[e.ID]; dup {
		return nil, false, fmt.Errorf("core: entry %s: duplicate id", e.ID)
	}
	r.entries = append(r.entries, e)
	r.byID[e.ID] = e
	r.byCanon[canon] = e
	// Ordered insert keeps r.ordered in §3 match order without a per-lookup
	// sort; insertion after equal keys mirrors the stable sort it replaces.
	i := sort.Search(len(r.ordered), func(i int) bool { return matchOrderLess(e, r.ordered[i]) })
	r.ordered = append(r.ordered, nil)
	copy(r.ordered[i+1:], r.ordered[i:])
	r.ordered[i] = e
	if e.indexable {
		r.byFP[e.termFP] = append(r.byFP[e.termFP], e)
	} else {
		r.unindexed = append(r.unindexed, e)
	}
	r.paths.mu.Lock()
	for _, p := range e.touchedPaths() {
		r.paths.byPath[p] = append(r.paths.byPath[p], e)
	}
	r.paths.mu.Unlock()
	r.journalEmit(Mutation{Op: MutAdd, Entry: e.clone()})
	return e, true, nil
}

// dropFromSlice removes the first pointer-identical occurrence of e.
func dropFromSlice(s []*Entry, e *Entry) []*Entry {
	for i, x := range s {
		if x == e {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Remove evicts an entry by ID, returning it (or nil if absent). Exactly
// one of any set of concurrent Remove(id) calls receives the entry, so the
// winner alone may delete the entry's owned file.
func (r *Repository) Remove(id string) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.removeLocked(id)
}

func (r *Repository) removeLocked(id string) *Entry {
	e, ok := r.byID[id]
	if !ok {
		return nil
	}
	r.entries = dropFromSlice(r.entries, e)
	delete(r.byID, id)
	delete(r.byCanon, e.Plan.Canonical())
	r.ordered = dropFromSlice(r.ordered, e)
	if e.indexable {
		if b := dropFromSlice(r.byFP[e.termFP], e); len(b) > 0 {
			r.byFP[e.termFP] = b
		} else {
			delete(r.byFP, e.termFP)
		}
	} else {
		r.unindexed = dropFromSlice(r.unindexed, e)
	}
	r.paths.mu.Lock()
	for _, p := range e.touchedPaths() {
		if b := dropFromSlice(r.paths.byPath[p], e); len(b) > 0 {
			r.paths.byPath[p] = b
		} else {
			delete(r.paths.byPath, p)
		}
	}
	r.paths.mu.Unlock()
	r.journalEmit(Mutation{Op: MutRemove, ID: id})
	return e
}

// RemoveIfIdle evicts the entry only when no in-flight execution has it
// pinned AND it has not been reused since the caller judged it stale
// (lastUsedSeq is the LastUsedSeq the caller observed; a mismatch means a
// concurrent rewrite refreshed the entry between the staleness check and
// this removal, so the Rule-3 verdict no longer holds). It returns the
// entry when removed, or nil when the entry is absent, pinned, or
// refreshed. Eviction uses this instead of Remove so it can never delete a
// stored output another concurrent workflow was rewritten to load, nor
// drop an entry that just proved its worth.
func (r *Repository) RemoveIfIdle(id string, lastUsedSeq int64) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	if !ok || e.pins > 0 || e.LastUsedSeq != lastUsedSeq {
		return nil
	}
	return r.removeLocked(id)
}

// Pin marks the entry as in use by an in-flight execution, preventing its
// eviction (and its owned file's deletion) until Unpin. It reports whether
// the entry was still present — a false return means the entry was evicted
// concurrently and the caller must rescan instead of reusing it.
func (r *Repository) Pin(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byID[id]; ok {
		e.pins++
		return true
	}
	return false
}

// Unpin releases pins taken by Pin. IDs of entries removed in the meantime
// (impossible for eviction, which skips pinned entries, but Remove is
// unconditional) are ignored.
func (r *Repository) Unpin(ids []string) {
	if len(ids) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		if e, ok := r.byID[id]; ok && e.pins > 0 {
			e.pins--
		}
	}
}

// Get returns the entry with the given ID, or nil.
func (r *Repository) Get(id string) *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byID[id]
}

// Ordered returns the entries in match-scan order, implementing the §3
// ordering rules:
//
//  1. If plan A subsumes plan B, A comes first. Subsumption implies A has at
//     least as many operators as B (every B operator needs an equivalent in
//     A), so ordering by descending plan size guarantees no subsumed entry
//     precedes its subsumer; identical plans are deduplicated at Add.
//  2. Ties order by descending input/output ratio, then descending
//     execution time — both favor entries whose reuse saves more.
//
// The order is maintained incrementally on Add/Remove (all comparator keys
// are immutable after Add), so this is a copy, not a per-call sort.
func (r *Repository) Ordered() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, len(r.ordered))
	copy(out, r.ordered)
	return out
}

// probeCandidates returns the entries a fingerprint probe must verify for an
// input plan with the given index: entries whose terminal fingerprint
// appears among the input's per-operator fingerprints (indexHits), plus
// every unindexable entry (fallback) — in §3 match-scan order, so verifying
// them first-match-wins reproduces the naive best-first scan exactly.
func (r *Repository) probeCandidates(inIx *physical.PlanIndex) (cands []*Entry, indexHits, fallback int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, fp := range inIx.Fingerprints() {
		cands = append(cands, r.byFP[fp]...)
	}
	indexHits = int64(len(cands))
	fallback = int64(len(r.unindexed))
	cands = append(cands, r.unindexed...)
	sort.Slice(cands, func(i, j int) bool { return matchOrderLess(cands[i], cands[j]) })
	return cands, indexHits, fallback
}

// matchOrderLess is the §3 match-scan comparator shared by Ordered and
// OrderedSnapshot.
func matchOrderLess(a, b *Entry) bool {
	if a.matchSize != b.matchSize {
		return a.matchSize > b.matchSize
	}
	ra, rb := a.ioRatio(), b.ioRatio()
	if ra != rb {
		return ra > rb
	}
	if a.ExecTime != b.ExecTime {
		return a.ExecTime > b.ExecTime
	}
	return a.ID < b.ID
}

// All returns the entries in insertion order (for inspection tools).
func (r *Repository) All() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, len(r.entries))
	copy(out, r.entries)
	return out
}

// clone returns a deep copy of the entry sharing only the immutable Plan.
// Runtime-only state (pins) is zeroed.
func (e *Entry) clone() *Entry {
	c := *e
	c.InputVersions = make(map[string]uint64, len(e.InputVersions))
	for k, v := range e.InputVersions {
		c.InputVersions[k] = v
	}
	c.pins = 0
	return &c
}

// Snapshot returns deep copies of the entries in insertion order. The
// result shares no mutable state with the repository (plans are immutable
// and stay shared), so callers may read it while queries keep executing —
// eviction iterates these on every execution's hot path, where the
// match-scan sort of OrderedSnapshot would be wasted work.
func (r *Repository) Snapshot() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.clone()
	}
	return out
}

// OrderedSnapshot returns deep copies of the entries in match-scan order —
// the repository endpoint of the restored daemon serializes these
// concurrently with MarkUsed.
func (r *Repository) OrderedSnapshot() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, len(r.ordered))
	for i, e := range r.ordered {
		out[i] = e.clone()
	}
	return out
}

// EntriesTouching returns deep copies of the entries whose input set or
// stored output touches any of the given DFS paths, deduplicated. This is
// the indexed Rule-4 candidate set for a batch of mutated paths: its size
// scales with the mutations, not the repository. Two-phase: candidate IDs
// are collected under the path-index read lock, then cloned under the
// repository read lock — an entry removed between the phases is
// simply skipped (it no longer needs invalidating), an entry added between
// them belongs to a later feed batch.
func (r *Repository) EntriesTouching(paths []string) []*Entry {
	if len(paths) == 0 {
		return nil
	}
	var ids []string
	seen := make(map[string]bool)
	r.paths.mu.RLock()
	for _, p := range paths {
		for _, e := range r.paths.byPath[p] {
			if !seen[e.ID] {
				seen[e.ID] = true
				ids = append(ids, e.ID)
			}
		}
	}
	r.paths.mu.RUnlock()
	if len(ids) == 0 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(ids))
	for _, id := range ids {
		if e, ok := r.byID[id]; ok {
			out = append(out, e.clone())
		}
	}
	return out
}

// CloneOf returns a deep copy of the entry with the given ID, or nil.
func (r *Repository) CloneOf(id string) *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.byID[id]; ok {
		return e.clone()
	}
	return nil
}

// ReferencesPath reports whether any live entry reads the path as an input
// or stores its output there. Retention and deferred-delete retries use it
// to refuse deleting a file the repository still depends on.
func (r *Repository) ReferencesPath(path string) bool {
	r.paths.mu.RLock()
	defer r.paths.mu.RUnlock()
	return len(r.paths.byPath[path]) > 0
}

// EntryUsage is the lightweight per-entry metadata the Rule-3 window and
// size-budget passes scan: no plan, no version map, so a pass over the whole
// repository touches only a few words per entry and never probes the DFS.
type EntryUsage struct {
	ID          string
	OutputPath  string
	OutputBytes int64
	OwnsFile    bool
	CreatedSeq  int64
	LastUsedSeq int64
}

// Touch is the recency key the window and budget policies order by: the
// last sequence at which the entry was created or reused.
func (u EntryUsage) Touch() int64 {
	if u.LastUsedSeq > u.CreatedSeq {
		return u.LastUsedSeq
	}
	return u.CreatedSeq
}

// AppendUsage appends the usage metadata of every entry to dst, in
// insertion order, and returns the extended slice.
func (r *Repository) AppendUsage(dst []EntryUsage) []EntryUsage {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dst = slices.Grow(dst, len(r.entries))
	for _, e := range r.entries {
		dst = append(dst, EntryUsage{
			ID:          e.ID,
			OutputPath:  e.OutputPath,
			OutputBytes: e.OutputBytes,
			OwnsFile:    e.OwnsFile,
			CreatedSeq:  e.CreatedSeq,
			LastUsedSeq: e.LastUsedSeq,
		})
	}
	return dst
}

// OutputRecord tracks one user-named query output for the §5
// keep-results-for-N retention mode.
type OutputRecord struct {
	Path string `json:"path"`
	// Seq is the workflow sequence that last wrote or re-requested the path.
	Seq int64 `json:"seq"`
	// Version is the file's DFS version at that point; a mismatch at
	// retirement time means the path was overwritten by something the
	// tracker never saw (an upload), so retention must leave it alone.
	Version uint64 `json:"version"`
}

// NoteOutput records (or refreshes) a user-named query output for
// retention. Journaled, so a recovered repository remembers how old every
// tracked output is. Takes only the path-index lock — output registrations
// never serialize on the repository mutex.
func (r *Repository) NoteOutput(path string, seq int64, version uint64) {
	r.paths.mu.Lock()
	r.paths.outputs[path] = OutputRecord{Path: path, Seq: seq, Version: version}
	r.paths.mu.Unlock()
	r.journalEmit(Mutation{Op: MutNoteOutput, Path: path, Seq: seq, Version: version})
}

// ForgetOutput drops a tracked output (it was retired, overwritten, or
// vanished). Forgetting an untracked path is a no-op and is not journaled.
func (r *Repository) ForgetOutput(path string) {
	r.paths.mu.Lock()
	_, ok := r.paths.outputs[path]
	if ok {
		delete(r.paths.outputs, path)
	}
	r.paths.mu.Unlock()
	if ok {
		r.journalEmit(Mutation{Op: MutForgetOutput, Path: path})
	}
}

// TrackedOutputs returns the retention table sorted by path.
func (r *Repository) TrackedOutputs() []OutputRecord {
	var out []OutputRecord
	r.paths.mu.RLock()
	for _, rec := range r.paths.outputs {
		out = append(out, rec)
	}
	r.paths.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// MarkUsed records a reuse of the entry at the given workflow sequence.
func (r *Repository) MarkUsed(id string, seq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	if !ok {
		return
	}
	e.UseCount++
	if seq > e.LastUsedSeq {
		e.LastUsedSeq = seq
	}
	r.journalEmit(Mutation{Op: MutUse, ID: id, UseCount: e.UseCount, LastUsedSeq: e.LastUsedSeq})
}

// TotalStoredBytes sums OutputBytes over all entries.
func (r *Repository) TotalStoredBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, e := range r.entries {
		n += e.OutputBytes
	}
	return n
}
