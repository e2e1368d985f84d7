package core

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRepositorySaveLoadRoundTrip(t *testing.T) {
	repo := NewRepository()
	q1 := compileJobs(t, q1Src, "tmp/q1")
	e := entryFromJob(t, q1[0], "persisted")
	e.InputVersions = map[string]uint64{"page_views": 3, "users": 7}
	e.UseCount = 5
	e.LastUsedSeq = 9
	e.OwnsFile = true
	if _, _, err := repo.Add(e); err != nil {
		t.Fatal(err)
	}
	sub := compileJobs(t, `
A = load 'page_views' as (user, timestamp, est_revenue:double, page_info, page_links);
B = foreach A generate user, est_revenue;
store B into 'restore/pv_proj';`, "tmp/s")
	if _, _, err := repo.Add(entryFromJob(t, sub[0], "proj")); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d entries", back.Len())
	}
	got := back.Get("persisted")
	if got == nil {
		t.Fatal("entry lost")
	}
	if got.UseCount != 5 || got.LastUsedSeq != 9 || !got.OwnsFile {
		t.Errorf("stats lost: %+v", got)
	}
	if got.InputVersions["users"] != 7 {
		t.Errorf("input versions lost: %v", got.InputVersions)
	}

	// The reloaded repository must still match and order correctly.
	q2 := compileJobs(t, q2Src, "tmp/q2")
	m, ok := FindBestMatch(q2[0].Plan, back)
	if !ok || m.Entry.ID != "persisted" {
		t.Errorf("reloaded repository failed to match: %+v", m)
	}
}

func TestLoadRepositoryRejectsCorrupt(t *testing.T) {
	if _, err := LoadRepository(strings.NewReader("not json")); err == nil {
		t.Error("corrupt JSON accepted")
	}
	if _, err := LoadRepository(strings.NewReader(`{"version": 99, "entries": []}`)); err == nil {
		t.Error("unknown version accepted")
	}
	// An entry whose plan has no store is invalid.
	if _, err := LoadRepository(strings.NewReader(
		`{"version":1,"entries":[{"id":"x","plan":{"ops":[]},"outputPath":"o"}]}`)); err == nil {
		t.Error("invalid entry accepted")
	}
	// Two different plans under one ID would leave one unreachable by ID.
	limit := func(in, out string) string {
		return `{"id":"x","outputPath":"` + out + `","plan":{"ops":[{"id":1,"kind":"Load","path":"` + in +
			`"},{"id":2,"kind":"Limit","inputs":[1],"n":1},{"id":3,"kind":"Store","inputs":[2],"path":"` + out + `"}]}}`
	}
	if _, err := LoadRepository(strings.NewReader(
		`{"version":1,"entries":[` + limit("a", "o") + `,` + limit("b", "p") + `]}`)); err == nil {
		t.Error("duplicate entry id accepted")
	}
}

func TestSaveLoadEmptyRepository(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRepository().Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepository(&buf)
	if err != nil || back.Len() != 0 {
		t.Errorf("empty round trip: %v len=%d", err, back.Len())
	}
}

func TestPersistedEntryMatchesAfterReload(t *testing.T) {
	// Statistics relevant to ordering must survive the trip.
	repo := NewRepository()
	q1 := compileJobs(t, q1Src, "tmp/q1")
	e := entryFromJob(t, q1[0], "big")
	e.InputBytes = 1 << 40
	e.OutputBytes = 1 << 20
	e.ExecTime = time.Hour
	if _, _, err := repo.Add(e); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Get("big")
	if got.ExecTime != time.Hour || got.InputBytes != 1<<40 {
		t.Errorf("stats = %+v", got)
	}
}
