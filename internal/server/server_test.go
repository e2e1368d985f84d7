package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newTestServer returns a Server (no persistence) behind an httptest server,
// plus a Client pointed at it.
func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Close(context.Background()); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, NewClient(hs.URL)
}

const pagesSchema = "user, views:int, revenue:double"

func uploadPages(t *testing.T, c *Client) {
	t.Helper()
	lines := []string{
		"alice\t3\t1.5",
		"bob\t7\t2.5",
		"alice\t2\t4.0",
		"carol\t1\t0.5",
	}
	info, err := c.Upload("data/pages", pagesSchema, 2, lines)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if info.Records != 4 || info.Partitions != 2 {
		t.Fatalf("upload stat = %+v, want 4 records in 2 partitions", info)
	}
}

const projectQuery = `A = load 'data/pages' as (user, views:int, revenue:double);
B = foreach A generate user, revenue;
store B into 'out/projected';`

func TestQueryUploadInspectCycle(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	uploadPages(t, c)

	ds, err := c.Datasets("data/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Path != "data/pages" {
		t.Fatalf("datasets = %+v", ds)
	}

	resp, err := c.Submit(projectQuery, true)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.Deduped {
		t.Error("lone query reported deduped")
	}
	rows := resp.Rows["out/projected"]
	if len(rows) != 4 {
		t.Fatalf("rows = %v, want 4", rows)
	}
	if rows[0] != "alice\t1.5" {
		t.Errorf("first sorted row = %q", rows[0])
	}

	// An aggregation registers its intermediate projection sub-job; the
	// same aggregation with a different aggregate must then reuse it.
	sums := `A = load 'data/pages' as (user, views:int, revenue:double);
B = foreach A generate user, revenue;
C = group B by user;
D = foreach C generate group, SUM(B.revenue);
store D into 'out/sums';`
	if _, err := c.Submit(sums, false); err != nil {
		t.Fatal(err)
	}
	avgs := strings.ReplaceAll(strings.ReplaceAll(sums, "SUM", "AVG"), "out/sums", "out/avgs")
	ex, err := c.Explain(avgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Rewrites) == 0 {
		t.Error("explain found no reuse after the SUM query registered its sub-jobs")
	}
	resp2, err := c.Submit(avgs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Result.Rewrites) == 0 {
		t.Error("AVG query applied no rewrites")
	}

	repo, err := c.Repository()
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Entries) == 0 {
		t.Fatal("repository empty after the aggregation queries")
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesSubmitted != 3 || m.QueriesExecuted != 3 {
		t.Errorf("metrics submitted=%d executed=%d, want 3/3", m.QueriesSubmitted, m.QueriesExecuted)
	}
	if m.Reuse.Queries != 3 || m.Reuse.QueriesReused != 1 {
		t.Errorf("reuse stats = %+v, want 3 queries / 1 reused", m.Reuse)
	}
	if m.Reuse.SavedTime <= 0 {
		t.Errorf("saved time = %v, want > 0", m.Reuse.SavedTime)
	}
	if m.RepositoryEntries != len(repo.Entries) {
		t.Errorf("metrics repo entries = %d, repository endpoint = %d", m.RepositoryEntries, len(repo.Entries))
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t)

	if _, err := c.Submit("", false); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("empty script: %v", err)
	}
	if _, err := c.Submit("not pig latin at all", false); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("parse error: %v", err)
	}
	if _, err := c.Upload("", "", 1, nil); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("upload without path/schema: %v", err)
	}
	if _, err := c.Upload("p", "a:notatype", 1, nil); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("bad schema: %v", err)
	}
	// The restore/ namespace backs repository entries; clients must not be
	// able to overwrite stored outputs.
	if _, err := c.Upload("restore/sub/s1", "a", 1, []string{"x"}); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("upload into restore/ namespace: %v", err)
	}
	// Checkpoint without a state dir is the client's mistake (400), not a
	// server fault.
	if err := c.Checkpoint(); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("checkpoint without state dir: %v", err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesFailed == 0 {
		t.Error("unparsable query not counted as failed")
	}
}

// TestScriptBodyLimit pins the request body bound: a query or explain body
// one byte over maxScriptBody is refused with 413 before any of it is
// parsed, while a body exactly at the limit is decoded (and fails as the
// bad script it is, with 400).
func TestScriptBodyLimit(t *testing.T) {
	srv, _ := newTestServer(t)
	body := func(n int) string {
		const head, tail = `{"script":"`, `"}`
		return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
	}
	for _, path := range []string{"/v1/query", "/v1/explain"} {
		for _, tc := range []struct {
			size, want int
		}{
			{maxScriptBody, http.StatusBadRequest},
			{maxScriptBody + 1, http.StatusRequestEntityTooLarge},
		} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body(tc.size))))
			if rec.Code != tc.want {
				t.Errorf("POST %s with a %d-byte body: status %d, want %d (%s)", path, tc.size, rec.Code, tc.want, rec.Body)
			}
		}
	}
}
