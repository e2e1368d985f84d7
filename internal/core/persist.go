package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// The repository survives restarts in the paper's deployment model (§6.2
// describes it as a table of records: physical plan, HDFS filename,
// statistics). Save/Load serialize exactly that.

// repositoryJSON is the persisted form.
type repositoryJSON struct {
	Version int      `json:"version"`
	Entries []*Entry `json:"entries"`
	// Outputs is the §5 retention table (user-named query outputs and the
	// sequence that last produced them). Absent in pre-retention snapshots,
	// which load with an empty table.
	Outputs []OutputRecord `json:"outputs,omitempty"`
}

const persistVersion = 1

// Save writes the repository as JSON.
func (r *Repository) Save(w io.Writer) error {
	doc := repositoryJSON{Version: persistVersion, Entries: r.All(), Outputs: r.TrackedOutputs()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("core: save repository: %w", err)
	}
	return nil
}

// LoadRepository reads a repository written by Save. Entries are re-indexed
// and re-validated; corrupt entries abort the load.
func LoadRepository(rd io.Reader) (*Repository, error) {
	var doc repositoryJSON
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: load repository: %w", err)
	}
	if doc.Version != persistVersion {
		return nil, fmt.Errorf("core: load repository: unsupported version %d", doc.Version)
	}
	repo := NewRepository()
	for _, e := range doc.Entries {
		if e == nil {
			return nil, fmt.Errorf("core: load repository: null entry")
		}
		if _, added, err := repo.Add(e); err != nil {
			return nil, fmt.Errorf("core: load repository entry %s: %w", e.ID, err)
		} else if !added {
			return nil, fmt.Errorf("core: load repository: duplicate plan for entry %s", e.ID)
		}
		// Advance the ID counter past loaded "entry-N" IDs so entries
		// registered after a restart never collide with persisted ones.
		if n, ok := entryIDCounter(e.ID); ok && n > repo.nextID {
			repo.nextID = n
		}
	}
	for _, rec := range doc.Outputs {
		repo.NoteOutput(rec.Path, rec.Seq, rec.Version)
	}
	return repo, nil
}
