package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLoadRepository feeds arbitrary bytes to the two readers of persisted
// repository state: LoadRepository (the state directory's repository.json,
// restorectl -load) and Apply of a decoded journal record (WAL replay).
// Neither may panic, and every repository that loads must save to a form
// that reloads and saves byte for byte the same.
func FuzzLoadRepository(f *testing.F) {
	f.Add([]byte(`{"version":1,"entries":[]}`))
	f.Add([]byte(`{"op":"remove","id":"entry-1"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Mutation
		if json.Unmarshal(data, &m) == nil {
			_ = NewRepository().Apply(m)
		}
		repo, err := LoadRepository(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := repo.Save(&first); err != nil {
			t.Fatalf("loaded repository does not save: %v", err)
		}
		again, err := LoadRepository(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved repository does not reload: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("reloaded repository does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/load/save is not stable:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
