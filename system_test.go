package restore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

// seedPaperData loads a miniature page_views/users instance.
func seedPaperData(t testing.TB, s *System, rows int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	viewsSchema := types.NewSchema(
		types.Field{Name: "user", Kind: types.KindString},
		types.Field{Name: "timestamp", Kind: types.KindInt},
		types.Field{Name: "est_revenue", Kind: types.KindFloat},
		types.Field{Name: "page_info", Kind: types.KindString},
		types.Field{Name: "page_links", Kind: types.KindString},
	)
	views := make([]types.Tuple, rows)
	for i := range views {
		views[i] = types.Tuple{
			types.NewString(fmt.Sprintf("user%03d", rng.Intn(50))),
			types.NewInt(int64(rng.Intn(86400))),
			types.NewFloat(float64(rng.Intn(1000)) / 100),
			types.NewString(strings.Repeat("i", 20)),
			types.NewString(strings.Repeat("l", 20)),
		}
	}
	if err := s.FS().WritePartitioned("page_views", viewsSchema, views, 4); err != nil {
		t.Fatal(err)
	}
	usersSchema := types.NewSchema(
		types.Field{Name: "name", Kind: types.KindString},
		types.Field{Name: "phone", Kind: types.KindString},
		types.Field{Name: "address", Kind: types.KindString},
		types.Field{Name: "city", Kind: types.KindString},
	)
	users := make([]types.Tuple, 40)
	for i := range users {
		users[i] = types.Tuple{
			types.NewString(fmt.Sprintf("user%03d", i)),
			types.NewString("555"),
			types.NewString("addr"),
			types.NewString("city"),
		}
	}
	if err := s.FS().WritePartitioned("users", usersSchema, users, 2); err != nil {
		t.Fatal(err)
	}
}

const sysQ1 = `
A = load 'page_views' as (user, timestamp, est_revenue:double, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'out/q1';
`

const sysQ2 = `
A = load 'page_views' as (user, timestamp, est_revenue:double, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'out/q2';
`

func TestExecuteBasicQuery(t *testing.T) {
	s := New()
	seedPaperData(t, s, 500)
	res, err := s.Execute(sysQ1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["out/q1"] != "out/q1" {
		t.Errorf("outputs = %v", res.Outputs)
	}
	rows, err := s.ReadOutput(res, "out/q1")
	if err != nil || len(rows) == 0 {
		t.Fatalf("no output rows: %v", err)
	}
	if res.SimulatedTime <= 0 {
		t.Error("no simulated time")
	}
	if res.Registered == 0 {
		t.Error("no candidates registered (HA should store the projections)")
	}
}

// TestReuseProducesIdenticalResults is the correctness heart of the
// reproduction: the paper's Q1-then-Q2 scenario must produce byte-identical
// results with and without ReStore.
func TestReuseProducesIdenticalResults(t *testing.T) {
	baseline := New(WithReuse(false), WithHeuristic(HeuristicOff), WithRegistration(false))
	seedPaperData(t, baseline, 500)
	bq1, err := baseline.Execute(sysQ1)
	if err != nil {
		t.Fatal(err)
	}
	bq2, err := baseline.Execute(sysQ2)
	if err != nil {
		t.Fatal(err)
	}
	wantQ1, err := baseline.ReadOutputTSV(bq1, "out/q1")
	if err != nil {
		t.Fatal(err)
	}
	wantQ2, err := baseline.ReadOutputTSV(bq2, "out/q2")
	if err != nil {
		t.Fatal(err)
	}

	sys := New() // full ReStore: reuse + aggressive heuristic
	seedPaperData(t, sys, 500)
	rq1, err := sys.Execute(sysQ1)
	if err != nil {
		t.Fatal(err)
	}
	rq2, err := sys.Execute(sysQ2)
	if err != nil {
		t.Fatal(err)
	}
	gotQ1, err := sys.ReadOutputTSV(rq1, "out/q1")
	if err != nil {
		t.Fatal(err)
	}
	gotQ2, err := sys.ReadOutputTSV(rq2, "out/q2")
	if err != nil {
		t.Fatal(err)
	}

	if strings.Join(gotQ1, "\n") != strings.Join(wantQ1, "\n") {
		t.Error("Q1 results differ under ReStore")
	}
	if strings.Join(gotQ2, "\n") != strings.Join(wantQ2, "\n") {
		t.Error("Q2 results differ under ReStore")
	}
	if len(rq2.Rewrites) == 0 {
		t.Error("Q2 did not reuse anything from Q1's execution")
	}
	// Reuse must strictly reduce the data the workflow reads. (Whether that
	// wins wall-clock depends on data scale vs fixed costs — the bench
	// shape tests assert the timing at paper scale.)
	baseIn, reuseIn := int64(0), int64(0)
	for _, j := range bq2.Jobs {
		baseIn += j.InputBytes
	}
	for _, j := range rq2.Jobs {
		reuseIn += j.InputBytes
	}
	if reuseIn >= baseIn {
		t.Errorf("reuse did not reduce bytes read: baseline=%d reuse=%d", baseIn, reuseIn)
	}
}

func TestRepeatedQueryCollapses(t *testing.T) {
	s := New()
	seedPaperData(t, s, 300)
	if _, err := s.Execute(sysQ2); err != nil {
		t.Fatal(err)
	}
	res2, err := s.Execute(strings.Replace(sysQ2, "out/q2", "out/q2_rerun", 1))
	if err != nil {
		t.Fatal(err)
	}
	// The join job collapses; only the group job (or less) remains.
	if len(res2.Jobs) > 1 {
		t.Errorf("rerun executed %d jobs, want <=1", len(res2.Jobs))
	}
	got, err := s.ReadOutputTSV(res2, "out/q2_rerun")
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.FS().ReadAll("out/q2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(first) {
		t.Errorf("rerun rows = %d, original = %d", len(got), len(first))
	}
}

func TestVariantQueryReusesJoin(t *testing.T) {
	// The paper's L3-variant scenario: same join, different aggregate.
	s := New()
	seedPaperData(t, s, 300)
	if _, err := s.Execute(sysQ2); err != nil {
		t.Fatal(err)
	}
	variant := strings.Replace(strings.Replace(sysQ2, "SUM(", "MAX(", 1), "out/q2", "out/q2max", 1)
	res, err := s.Execute(variant)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewrites) == 0 {
		t.Error("variant did not reuse the shared join")
	}
	// Verify against a fresh baseline.
	base := New(WithReuse(false), WithHeuristic(HeuristicOff), WithRegistration(false))
	seedPaperData(t, base, 300)
	bres, err := base.Execute(variant)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.ReadOutputTSV(bres, "out/q2max")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadOutputTSV(res, "out/q2max")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Error("variant results differ under reuse")
	}
}

func TestHeuristicOffNoInjection(t *testing.T) {
	s := New(WithHeuristic(HeuristicOff))
	seedPaperData(t, s, 200)
	res, err := s.Execute(sysQ1)
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectedBytes != 0 {
		t.Errorf("injected bytes = %d with HeuristicOff", res.InjectedBytes)
	}
}

func TestInjectionOverheadVisible(t *testing.T) {
	off := New(WithHeuristic(HeuristicOff), WithReuse(false), WithRegistration(false))
	seedPaperData(t, off, 400)
	resOff, err := off.Execute(sysQ1)
	if err != nil {
		t.Fatal(err)
	}
	agg := New(WithHeuristic(HeuristicAggressive), WithReuse(false))
	seedPaperData(t, agg, 400)
	resAgg, err := agg.Execute(sysQ1)
	if err != nil {
		t.Fatal(err)
	}
	if resAgg.InjectedBytes == 0 {
		t.Fatal("aggressive heuristic stored nothing")
	}
	if resAgg.SimulatedTime <= resOff.SimulatedTime {
		t.Errorf("injection shows no overhead: off=%v agg=%v", resOff.SimulatedTime, resAgg.SimulatedTime)
	}
}

func TestEvictionOnInputChange(t *testing.T) {
	s := New()
	seedPaperData(t, s, 200)
	if _, err := s.Execute(sysQ1); err != nil {
		t.Fatal(err)
	}
	if s.Repository().Len() == 0 {
		t.Fatal("nothing registered")
	}
	// Modify the base table: all entries derived from it must be evicted on
	// the next query.
	seedPaperData(t, s, 210)
	res, err := s.Execute(strings.Replace(sysQ1, "out/q1", "out/q1b", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewrites) != 0 {
		t.Error("stale entries were reused after input changed")
	}
	if len(res.Evicted) == 0 {
		t.Error("no entries evicted after input change")
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	s := New()
	if _, err := s.Execute("this is not pig latin"); err == nil {
		t.Error("bad script accepted")
	}
	if _, err := s.Execute("A = load 'x' as (a);"); err == nil {
		t.Error("store-less script accepted")
	}
}

func TestReadOutputUnknownPath(t *testing.T) {
	s := New()
	seedPaperData(t, s, 100)
	res, err := s.Execute(sysQ1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadOutput(res, "out/never_stored"); err == nil {
		t.Error("unknown output accepted")
	}
}

func TestSequentialQueriesShareRepositoryGrowth(t *testing.T) {
	s := New()
	seedPaperData(t, s, 200)
	if _, err := s.Execute(sysQ1); err != nil {
		t.Fatal(err)
	}
	n1 := s.Repository().Len()
	if _, err := s.Execute(sysQ2); err != nil {
		t.Fatal(err)
	}
	n2 := s.Repository().Len()
	if n1 == 0 || n2 < n1 {
		t.Errorf("repository growth wrong: %d -> %d", n1, n2)
	}
	// A third run of Q2 should add nothing new (all plans deduplicated).
	if _, err := s.Execute(strings.Replace(sysQ2, "out/q2", "out/q2c", 1)); err != nil {
		t.Fatal(err)
	}
	if s.Repository().Len() != n2 {
		t.Errorf("duplicate plans entered repository: %d -> %d", n2, s.Repository().Len())
	}
}

// TestExecuteReadRunsInsideLeaseAndPins pins the read contract
// ExecutePreparedTraced shares with TryServeStored: read sees the finished
// Result while the execution's lease is still held and every reused entry
// is still pinned, so an output aliasing a repository-owned file cannot be
// evicted underneath it; both are released once the call returns, and an
// error from read fails the call.
func TestExecuteReadRunsInsideLeaseAndPins(t *testing.T) {
	sys := New()
	seedPaperData(t, sys, 400)
	const aggregate = `A = load 'page_views' as (user, timestamp, est_revenue:double, page_info, page_links);
B = group A by user;
C = foreach B generate group as user, SUM(A.est_revenue) as total;
`
	// The long query materializes C as a repository-owned sub-job file.
	if _, err := sys.Execute(aggregate + `D = filter C by total > 1.0;
store D into 'out/long';`); err != nil {
		t.Fatal(err)
	}
	// The short query is exactly that sub-job, so its output aliases the
	// stored file; the second pipeline keeps it a leased execution.
	p, err := sys.Prepare(aggregate + `store C into 'out/short';
X = load 'users' as (name, phone, address, city);
Y = foreach X generate name;
store Y into 'out/side';`)
	if err != nil {
		t.Fatal(err)
	}
	repo := sys.Repository()
	var aliased *core.RewriteInfo
	var rows []string
	res, err := sys.ExecutePreparedTraced(p, nil, func(r *Result) error {
		for i, ri := range r.Rewrites {
			if ri.WholeJob && r.Outputs["out/short"] == ri.OutputPath {
				aliased = &r.Rewrites[i]
			}
		}
		if aliased == nil {
			t.Fatalf("out/short does not alias a stored file: outputs %v, rewrites %+v", r.Outputs, r.Rewrites)
		}
		if n := sys.leases.inflightCount(); n == 0 {
			t.Error("read ran after the execution's lease was released")
		}
		if e := repo.Get(aliased.EntryID); repo.RemoveIfIdle(e.ID, e.LastUsedSeq) != nil {
			t.Error("the entry behind an aliased output was evictable during read: its pin was already released")
		}
		var rerr error
		rows, rerr = sys.ReadOutputTSV(r, "out/short")
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || res.Outputs["out/short"] != aliased.OutputPath {
		t.Fatalf("read %d rows from %q", len(rows), res.Outputs["out/short"])
	}
	if n := sys.leases.inflightCount(); n != 0 {
		t.Errorf("%d leases still held after the call returned", n)
	}
	if e := repo.Get(aliased.EntryID); repo.RemoveIfIdle(e.ID, e.LastUsedSeq) == nil {
		t.Error("the entry is still pinned after the call returned")
	}

	p2, err := sys.Prepare(`A = load 'users' as (name, phone, address, city);
B = foreach A generate city;
store B into 'out/cities';`)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("rows unavailable")
	if res, err := sys.ExecutePreparedTraced(p2, nil, func(*Result) error { return boom }); err != boom || res != nil {
		t.Errorf("a failing read returned (%v, %v), want (nil, %v)", res, err, boom)
	}
}
