package core

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the repository half of the incremental-persistence subsystem
// (the FS half lives in internal/dfs/journal.go): instead of re-serializing
// the whole repository on every checkpoint (Save), the repository emits one
// append-only Mutation record per committed change. Replaying a snapshot
// plus the journaled suffix (Apply) reconstructs the repository exactly —
// including the usage statistics the §3 match ordering and §5 eviction
// window read. Pins are deliberately not journaled: they describe in-flight
// executions of one process and are meaningless after a crash.

// MutationOp enumerates the journaled repository mutations.
type MutationOp string

// Mutation operations.
const (
	// MutAdd records a successful Add: the full entry (plan, output path,
	// statistics, input/output version snapshots) as it entered the index.
	MutAdd MutationOp = "add"
	// MutRemove records Remove/RemoveIfIdle evicting an entry.
	MutRemove MutationOp = "remove"
	// MutUse records MarkUsed, with the resulting absolute counters (not
	// the increment), so replaying a record twice cannot double-count.
	MutUse MutationOp = "use"
	// MutNoteOutput records NoteOutput: a user-named query output entered
	// (or refreshed in) the retention table, with its absolute sequence and
	// file version — replaying twice converges.
	MutNoteOutput MutationOp = "note-output"
	// MutForgetOutput records ForgetOutput retiring a tracked output.
	MutForgetOutput MutationOp = "forget-output"
)

// Mutation is one committed repository change, journaled in commit order.
// Like dfs.Mutation, records carry absolute resulting state so replay is
// convergent: re-applying records already reflected in a newer snapshot is
// harmless (Add deduplicates on the plan's canonical form, Remove of an
// absent ID is a no-op, Use sets counters rather than incrementing them).
type Mutation struct {
	Op MutationOp `json:"op"`
	// Entry is the added entry (MutAdd), deep-copied at journal time so the
	// record is immune to later MarkUsed updates of the live entry.
	Entry *Entry `json:"entry,omitempty"`
	// ID names the entry for MutRemove and MutUse.
	ID string `json:"id,omitempty"`
	// UseCount and LastUsedSeq are the absolute post-MarkUsed values.
	UseCount    int64 `json:"useCount,omitempty"`
	LastUsedSeq int64 `json:"lastUsedSeq,omitempty"`
	// Path, Seq, and Version carry the retention-table state for
	// MutNoteOutput (all three) and MutForgetOutput (Path only).
	Path    string `json:"path,omitempty"`
	Seq     int64  `json:"seq,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// Journal receives every committed repository mutation. Record is called
// synchronously under the lock that committed the mutation (r.mu for entry
// mutations, the path-index lock for retention-table mutations) plus the
// journal leaf mutex, so records for any one entry or any one path arrive
// in exactly the order those mutations took effect; implementations must be
// fast and must not call back into the repository.
type Journal interface {
	Record(m Mutation)
}

// SetJournal attaches (or with nil detaches) the mutation journal. Attach
// only while the repository is quiescent (daemon startup, after recovery);
// earlier mutations are not replayed to the journal.
func (r *Repository) SetJournal(j Journal) {
	r.jmu.Lock()
	defer r.jmu.Unlock()
	r.journal = j
}

// journalEmit forwards one committed mutation to the attached journal.
// Called by every mutating method while still holding the lock that
// committed the mutation; takes only the leaf mutex jmu itself, so callers
// holding r.mu and callers holding the paths lock both emit without
// taking the other's lock.
func (r *Repository) journalEmit(m Mutation) {
	r.jmu.Lock()
	defer r.jmu.Unlock()
	if r.journal != nil {
		r.journal.Record(m)
	}
}

// Apply replays one journaled mutation without re-journaling it (call it
// before SetJournal, during recovery). Records are tolerated out of sync
// with the snapshot they extend — see the Mutation docs — so replaying a
// log whose prefix a crash-interrupted compaction already folded into the
// snapshot still converges to the right final state.
func (r *Repository) Apply(m Mutation) error {
	switch m.Op {
	case MutAdd:
		if m.Entry == nil {
			return fmt.Errorf("core: apply: add record without an entry")
		}
		if _, _, err := r.Add(m.Entry); err != nil {
			return err
		}
		// Advance the ID counter like LoadRepository does, so entries
		// registered after recovery never collide with replayed ones.
		r.mu.Lock()
		if n, ok := entryIDCounter(m.Entry.ID); ok && n > r.nextID {
			r.nextID = n
		}
		r.mu.Unlock()
	case MutRemove:
		r.Remove(m.ID)
	case MutUse:
		r.mu.Lock()
		if e, ok := r.byID[m.ID]; ok {
			e.UseCount = m.UseCount
			if m.LastUsedSeq > e.LastUsedSeq {
				e.LastUsedSeq = m.LastUsedSeq
			}
		}
		r.mu.Unlock()
	case MutNoteOutput:
		r.NoteOutput(m.Path, m.Seq, m.Version)
	case MutForgetOutput:
		r.ForgetOutput(m.Path)
	default:
		return fmt.Errorf("core: apply: unknown mutation op %q", m.Op)
	}
	return nil
}

// entryIDCounter extracts N from an "entry-N" ID.
func entryIDCounter(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "entry-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return n, true
}
