package mapred

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/types"
)

// groupStoreJob builds the shape the Aggressive heuristic gives PigMix L6:
// Load(in) -> injected Store of the load, and Group(user) -> injected Store
// of the groups -> Foreach(group, SUM(C.rev), COUNT(C)) -> Store. The two
// injected stores are written map-side and reduce-side; the injected group
// store keeps the combiner off, so every group's bag is built.
func groupStoreJob(t testing.TB, in, tag string) *Job {
	t.Helper()
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: in, Schema: viewsSchema()})
	lsp := p.Add(&physical.Operator{Kind: physical.OpSplit, Inputs: []int{l.ID}, Schema: l.Schema, Injected: true})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: "restore/" + tag + "/load", Inputs: []int{lsp.ID}, Schema: l.Schema, Injected: true})
	sub := viewsSchema()
	g := p.Add(&physical.Operator{Kind: physical.OpGroup, Inputs: []int{lsp.ID},
		Keys: [][]*expr.Expr{{expr.ColIdx(0)}},
		Schema: types.Schema{Fields: []types.Field{
			{Name: "group"}, {Name: "C", Kind: types.KindBag, Sub: &sub}}}})
	gsp := p.Add(&physical.Operator{Kind: physical.OpSplit, Inputs: []int{g.ID}, Schema: g.Schema, Injected: true})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: "restore/" + tag + "/group", Inputs: []int{gsp.ID}, Schema: g.Schema, Injected: true})
	sum, err := expr.Call("SUM", expr.BagProj(expr.Col("C"), "rev")).Bind(g.Schema)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := expr.Call("COUNT", expr.Col("C")).Bind(g.Schema)
	if err != nil {
		t.Fatal(err)
	}
	fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{gsp.ID},
		Exprs:  []*expr.Expr{expr.ColIdx(0), sum, cnt},
		Schema: types.SchemaFromNames("group", "sum", "cnt")})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: "out/" + tag, Inputs: []int{fe.ID}, Schema: fe.Schema})
	j, err := NewJob(tag, p)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// bagFoldJob builds the residual job sub-job reuse leaves PigMix L3: a
// map-only Foreach over a stored Group output, (group, C: bag of (user,
// rev)), generating group and SUM, AVG, MIN, MAX and COUNT of C.rev, then a
// Store to out.
func bagFoldJob(t testing.TB, in, out string) *Job {
	t.Helper()
	sub := viewsSchema()
	schema := types.Schema{Fields: []types.Field{{Name: "group"}, {Name: "C", Kind: types.KindBag, Sub: &sub}}}
	p := physical.NewPlan()
	l := p.Add(&physical.Operator{Kind: physical.OpLoad, Path: in, Schema: schema})
	exprs := []*expr.Expr{expr.ColIdx(0)}
	names := []string{"group"}
	for _, agg := range []string{"SUM", "AVG", "MIN", "MAX", "COUNT"} {
		e, err := expr.Call(agg, expr.BagProj(expr.Col("C"), "rev")).Bind(schema)
		if err != nil {
			t.Fatal(err)
		}
		exprs = append(exprs, e)
		names = append(names, agg)
	}
	fe := p.Add(&physical.Operator{Kind: physical.OpForeach, Inputs: []int{l.ID}, Exprs: exprs, Schema: types.SchemaFromNames(names...)})
	p.Add(&physical.Operator{Kind: physical.OpStore, Path: out, Inputs: []int{fe.ID}, Schema: fe.Schema})
	j, err := NewJob(out, p)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestStoredBagFold: folding the stored Group output's bags, which the
// map tasks read back lazily, gives for every user the SUM, AVG, MIN, MAX
// and COUNT of the revenues writeViews gave that user.
func TestStoredBagFold(t *testing.T) {
	e := newTestEngine()
	const rows, users = 600, 40
	writeViews(t, e.FS, "data/views", rows, users, 6, 3)
	ctx := context.Background()
	if _, err := e.RunJob(ctx, groupStoreJob(t, "data/views", "fold")); err != nil {
		t.Fatal(err)
	}
	res, err := e.RunJob(ctx, bagFoldJob(t, "restore/fold/group", "out/folded"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShuffleBytes != 0 {
		t.Errorf("the fold shuffled %d bytes; it is map-only", res.Stats.ShuffleBytes)
	}
	got, err := e.FS.ReadAll("out/folded")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != users {
		t.Fatalf("%d groups, want %d", len(got), users)
	}
	for _, row := range got {
		u, err := strconv.Atoi(row[0].Str())
		if err != nil {
			t.Fatal(err)
		}
		var sum, n int64
		for i := u; i < rows; i += users {
			sum += int64(i)
			n++
		}
		want := types.Tuple{row[0], types.NewInt(sum), types.NewFloat(float64(sum) / float64(n)),
			types.NewInt(int64(u)), types.NewInt(int64(u) + (n-1)*users), types.NewInt(n)}
		if !bytes.Equal(types.EncodeTuple(nil, row), types.EncodeTuple(nil, want)) {
			t.Errorf("user %d: %v, want %v", u, row, want)
		}
	}
}

// writeViews writes rows (user, rev) over users distinct users, each user
// name padded to width bytes, spread over parts partitions.
func writeViews(t testing.TB, fs *dfs.FS, path string, rows, users, width, parts int) {
	t.Helper()
	tuples := make([]types.Tuple, rows)
	for i := range tuples {
		tuples[i] = types.Tuple{
			types.NewString(fmt.Sprintf("%0*d", width, i%users)),
			types.NewInt(int64(i)),
		}
	}
	if err := fs.WritePartitioned(path, viewsSchema(), tuples, parts); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedPayloadsArePrivate: a task frames its store output in a
// growth buffer that goes back to a pool, and commits an exact-size copy.
// Every partition a first job committed, map-side and reduce-side, must
// stay byte-identical while a second job with larger outputs runs through
// the same engine, taking the pooled buffers the first job's tasks
// released.
func TestCommittedPayloadsArePrivate(t *testing.T) {
	e := newTestEngine()
	writeViews(t, e.FS, "data/small", 60, 7, 4, 3)
	writeViews(t, e.FS, "data/large", 600, 40, 32, 3)
	ctx := context.Background()
	if _, err := e.RunJob(ctx, groupStoreJob(t, "data/small", "first")); err != nil {
		t.Fatal(err)
	}
	type held struct {
		path string
		part int
		data []byte
		copy []byte
	}
	var parts []held
	for _, path := range []string{"restore/first/load", "restore/first/group", "out/first"} {
		n, err := e.FS.Partitions(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			data, err := e.FS.ReadPartitionRaw(path, i)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				continue
			}
			if cap(data) != len(data) {
				t.Errorf("%s partition %d: cap %d, len %d: the committed payload is not exact-size", path, i, cap(data), len(data))
			}
			parts = append(parts, held{path, i, data, bytes.Clone(data)})
		}
	}
	if len(parts) < 3 {
		t.Fatalf("first job committed %d non-empty partitions, want map-side and reduce-side ones", len(parts))
	}
	if _, err := e.RunJob(ctx, groupStoreJob(t, "data/large", "second")); err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if !bytes.Equal(p.data, p.copy) {
			t.Errorf("%s partition %d changed while a later job ran", p.path, p.part)
		}
		now, err := e.FS.ReadPartitionRaw(p.path, p.part)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(now, p.copy) {
			t.Errorf("%s partition %d reads back changed", p.path, p.part)
		}
	}
}

// TestBagWindowsAreIsolated: applyBlocking builds every Group and CoGroup
// bag as a window of one arena. Adding to any bag must leave every other
// bag's tuples as they were, including the per-tag groups a null key
// forms in a CoGroup.
func TestBagWindowsAreIsolated(t *testing.T) {
	key := func(v types.Value) types.Tuple { return types.Tuple{v} }
	cases := []struct {
		name string
		op   *physical.Operator
		recs []shuffleRec
	}{
		{
			name: "group",
			op:   &physical.Operator{Kind: physical.OpGroup, Inputs: []int{0}, Keys: [][]*expr.Expr{{expr.ColIdx(0)}}},
			recs: []shuffleRec{
				{key: key(types.Null())}, {key: key(types.Null())},
				{key: key(types.NewInt(1))}, {key: key(types.NewInt(1))},
				{key: key(types.NewInt(2))}, {key: key(types.NewInt(2))}, {key: key(types.NewInt(2))},
			},
		},
		{
			name: "cogroup",
			op: &physical.Operator{Kind: physical.OpCoGroup, Inputs: []int{0, 1},
				Keys: [][]*expr.Expr{{expr.ColIdx(0)}, {expr.ColIdx(0)}}},
			recs: []shuffleRec{
				{key: key(types.Null()), tag: 0}, {key: key(types.Null()), tag: 0},
				{key: key(types.Null()), tag: 1}, {key: key(types.Null()), tag: 1},
				{key: key(types.NewInt(1)), tag: 0}, {key: key(types.NewInt(1)), tag: 0},
				{key: key(types.NewInt(1)), tag: 1},
				{key: key(types.NewInt(2)), tag: 1}, {key: key(types.NewInt(2)), tag: 1},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := tc.recs
			for i := range recs {
				recs[i].seq = int64(i)
				recs[i].val = types.Tuple{recs[i].key[0], types.NewInt(int64(i))}
			}
			sortRun(compileComparator(tc.op), recs)
			var bags []*types.Bag
			err := applyBlocking(tc.op, recs, func(out types.Tuple) error {
				for _, v := range out[1:] {
					bags = append(bags, v.Bag())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			snapshot := func() []string {
				out := make([]string, len(bags))
				for i, b := range bags {
					out[i] = fmt.Sprint(b.Tuples())
				}
				return out
			}
			want := snapshot()
			for i, b := range bags {
				b.Add(types.Tuple{types.NewString("added"), types.NewInt(int64(-i))})
				got := snapshot()
				for j := range bags {
					if j != i && got[j] != want[j] {
						t.Errorf("adding to bag %d changed bag %d: %s, was %s", i, j, got[j], want[j])
					}
				}
				want[i] = got[i]
			}
		})
	}
}
