package expr

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// fusedAggs are the aggregates Bind fuses over a bag projection.
var fusedAggs = []string{"COUNT", "SUM", "MIN", "MAX", "AVG"}

// bagSchema is (C: bag of (f0..f3)); rows in the tests may be shorter or
// longer than the element schema.
var bagSchema = types.NewSchema(types.Field{Name: "C", Kind: types.KindBag,
	Sub: &types.Schema{Fields: []types.Field{{Name: "f0"}, {Name: "f1"}, {Name: "f2"}, {Name: "f3"}}}})

// foldValue draws one field value of the kinds the folds treat apart:
// null, small ints, ints past 2^53 (which float64 cannot tell apart),
// floats, NaN and the infinities, numeric and non-numeric strings, bools.
func foldValue(r *rand.Rand) types.Value {
	switch r.Intn(10) {
	case 0:
		return types.Null()
	case 1:
		return types.NewInt(int64(r.Intn(7) - 3))
	case 2:
		return types.NewInt(1<<53 + int64(r.Intn(3)))
	case 3:
		return types.NewInt(-(1<<53 + int64(r.Intn(3))))
	case 4:
		return types.NewFloat(float64(r.Intn(9)-4) / 2)
	case 5:
		return []types.Value{types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1))}[r.Intn(3)]
	case 6:
		return types.NewString([]string{"7", "1.5", "x", ""}[r.Intn(4)])
	case 7:
		return types.NewBool(r.Intn(2) == 0)
	default:
		return types.NewFloat(float64(1<<53) + float64(r.Intn(3)))
	}
}

// foldBag draws a bag of 0..6 rows of 0..5 fields.
func foldBag(r *rand.Rand) *types.Bag {
	rows := make([]types.Tuple, r.Intn(7))
	for i := range rows {
		rows[i] = make(types.Tuple, r.Intn(6))
		for j := range rows[i] {
			rows[i][j] = foldValue(r)
		}
	}
	return types.BagOf(rows...)
}

// sameValue reports whether two results are the same value of the same
// kind, bit for bit: NaN equals NaN, and int 3 differs from float 3.
func sameValue(a, b types.Value) bool {
	return bytes.Equal(types.EncodeTuple(nil, types.Tuple{a}), types.EncodeTuple(nil, types.Tuple{b}))
}

// fusedCall binds AGG(C.fi) over bagSchema and checks that Bind fused it.
func fusedCall(t testing.TB, agg string, i int) *Expr {
	t.Helper()
	e, err := Call(agg, BagProj(Col("C"), bagSchema.Fields[0].Sub.Fields[i].Name)).Bind(bagSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !e.fused {
		t.Fatalf("%s was not fused", e)
	}
	return e
}

// unfusedFold is AGG(C.$i) as projection-then-fold: OpBagProj builds the
// projected bag, then the aggregate folds it as a bag column.
func unfusedFold(t testing.TB, agg string, bag types.Value, i int) types.Value {
	t.Helper()
	proj, err := BagProj(Col("C"), bagSchema.Fields[0].Sub.Fields[i].Name).Bind(bagSchema)
	if err != nil {
		t.Fatal(err)
	}
	return Call(agg, ColIdx(0)).Eval(types.Tuple{proj.Eval(types.Tuple{bag})})
}

// bagForms returns eager: the bag as built, the same bag read back by the
// aliasing decode (lazy, as a map task reads a stored Group output), and a
// second lazy copy whose tuples were decoded before the fold.
func bagForms(t testing.TB, eager *types.Bag) map[string]types.Value {
	t.Helper()
	rec := types.EncodeTuple(nil, types.Tuple{types.NewBag(eager)})
	lazy, err := types.DecodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := types.DecodeRecord(bytes.Clone(rec))
	if err != nil {
		t.Fatal(err)
	}
	decoded[0].Bag().Tuples()
	return map[string]types.Value{"eager": types.NewBag(eager), "lazy": lazy[0], "decoded": decoded[0]}
}

// checkFused compares, for every fused aggregate and every field of the
// element schema, the fused fold against projection-then-fold, over each
// form of the bag; for the algebraic ones also a fold of Fold.StepField
// (the combiner's step) over the rows. AGG(C) itself, folded first (so the
// lazy form is still undecoded), must equal its eager form's value and the
// StepField fold with i = -1. Each aggregate gets fresh forms.
func checkFused(t *testing.T, eager *types.Bag) {
	t.Helper()
	for _, agg := range fusedAggs {
		for name, bag := range bagForms(t, eager) {
			whole := Call(agg, ColIdx(0)).Eval(types.Tuple{bag})
			if want := Call(agg, ColIdx(0)).Eval(types.Tuple{types.NewBag(eager)}); !sameValue(whole, want) {
				t.Fatalf("%s bag %v: %s(C) = %v, over the eager bag %v", name, bag, agg, whole, want)
			}
			for i := 0; i < 4; i++ {
				want := unfusedFold(t, agg, types.NewBag(eager), i)
				if got := fusedCall(t, agg, i).Eval(types.Tuple{bag}); !sameValue(got, want) {
					t.Fatalf("%s bag %v: fused %s(C.$%d) = %s:%v, projection then fold = %s:%v",
						name, bag, agg, i, got.Kind(), got, want.Kind(), want)
				}
			}
			fold := Call(agg).fn.Fold
			if fold == nil {
				continue
			}
			for i := -1; i < 4; i++ {
				want := whole
				if i >= 0 {
					want = unfusedFold(t, agg, types.NewBag(eager), i)
				}
				acc := fold.Zero
				for _, row := range bag.Bag().Tuples() {
					acc = fold.StepField(acc, row, i)
				}
				if !sameValue(acc, want) {
					t.Fatalf("%s bag %v: StepField fold of %s over $%d = %v, want %v", name, bag, agg, i, acc, want)
				}
			}
		}
	}
}

// TestFusedFoldMatchesProjection: fused AGG(C.$i) equals the projection
// then the fold, over eager, lazy and decoded bags, for the edge bags and
// for seeded random ones.
func TestFusedFoldMatchesProjection(t *testing.T) {
	edges := [][]types.Tuple{
		nil,
		{{}},
		{{}, {types.Null()}, {types.Null(), types.Null()}},
		{{types.NewInt(1)}, {types.NewInt(2), types.NewFloat(0.5)}, {types.NewFloat(2.5), types.NewInt(4), types.NewInt(5)}},
		{{types.NewFloat(math.NaN())}, {types.NewInt(1)}, {types.NewFloat(math.NaN()), types.NewFloat(math.NaN())}},
		{{types.NewInt(1 << 53)}, {types.NewInt(1)}, {types.NewInt(1)}, {types.NewFloat(1)}},
		{{types.NewInt(1<<53 + 1), types.NewInt(1<<53 + 1)}, {types.NewInt(1 << 53), types.NewInt(1<<53 + 2)}},
		{{types.NewString("3"), types.NewBool(true)}, {types.NewString("x")}, {types.NewInt(2)}},
	}
	for _, rows := range edges {
		checkFused(t, types.BagOf(rows...))
	}
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 500; n++ {
		checkFused(t, foldBag(r))
	}
}

// TestFusedFoldNonBag: a fused call over a null or scalar column is null,
// as the projection of a non-bag is.
func TestFusedFoldNonBag(t *testing.T) {
	for _, agg := range fusedAggs {
		for _, v := range []types.Value{types.Null(), types.NewInt(3), types.NewString("x")} {
			want := Call(agg, ColIdx(0)).Eval(types.Tuple{BagProj(ColIdx(0), "f").Eval(types.Tuple{v})})
			if got := fusedCall(t, agg, 1).Eval(types.Tuple{v}); !sameValue(got, want) {
				t.Errorf("%s over %v: fused %v, unfused %v", agg, v, got, want)
			}
		}
	}
}

// FuzzFusedFold: over any record the decoder accepts, every bag column's
// fused folds equal projection-then-fold, whether the record was decoded
// eagerly or lazily.
func FuzzFusedFold(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for n := 0; n < 8; n++ {
		f.Add(types.EncodeTuple(nil, types.Tuple{types.NewBag(foldBag(r)), types.NewInt(1)}))
	}
	f.Add(types.EncodeTuple(nil, types.Tuple{types.NewBag(types.BagOf())}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := types.DecodeTuple(data)
		if err != nil {
			return
		}
		for _, v := range rec {
			if v.Kind() == types.KindBag {
				checkFused(t, v.Bag())
			}
		}
		lazy, err := types.DecodeRecord(data[:n])
		if err != nil {
			t.Fatalf("DecodeRecord rejects what DecodeTuple accepts: %v", err)
		}
		for c, v := range lazy {
			if v.Kind() != types.KindBag {
				continue
			}
			for _, agg := range fusedAggs {
				for i := 0; i < 4; i++ {
					want := unfusedFold(t, agg, rec[c], i)
					if got := fusedCall(t, agg, i).Eval(types.Tuple{v}); !sameValue(got, want) {
						t.Fatalf("column %d: fused %s(C.$%d) over the aliased decode = %v, want %v", c, agg, i, got, want)
					}
				}
			}
		}
	})
}
