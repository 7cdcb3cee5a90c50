package agree

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attrset"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/relation"
)

// boundaryRelations are the small shapes every split point is tried on:
// the paper example, two overlapping classes, all-duplicate rows, and
// one large class.
func boundaryRelations(t *testing.T) []*relation.Relation {
	t.Helper()
	large := [][]int{make([]int, 40), make([]int, 40)}
	for i := range large[1] {
		large[1][i] = i % 3
	}
	return []*relation.Relation{
		relation.PaperExample(),
		codesRelation(t, [][]int{{0, 0, 0, 1, 2}, {7, 5, 5, 5, 8}}),
		codesRelation(t, [][]int{{4, 4, 4, 4, 4, 4}, {1, 1, 1, 1, 1, 1}, {0, 0, 0, 0, 0, 0}}),
		codesRelation(t, large),
	}
}

// TestChunkBoundariesExhaustive cuts the tuples of small relations at
// every split point, into two and three shards and into blocks of every
// size, for both variants: the union of the shard runs plus Finish must
// equal Run at one worker, and the shards' couples must sum to its
// count.
func TestChunkBoundariesExhaustive(t *testing.T) {
	for _, r := range boundaryRelations(t) {
		plan := mustPlan(t, partition.NewDatabase(r))
		rows := r.Rows()
		for _, v := range []Variant{VariantCouples, VariantIdentifiers} {
			ref, err := plan.Run(context.Background(), v, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			splits := [][]Shard{}
			for i := 0; i <= rows; i++ {
				splits = append(splits, splitAt(rows, i), blocks(rows, i))
				for j := i; j <= rows && rows <= 12; j++ {
					splits = append(splits, splitAt(rows, i, j))
				}
			}
			for _, shards := range splits {
				checkShards(t, plan, shards, v, Options{Workers: 1}, ref)
			}
		}
	}
}

// TestRandomSplitsOnGeneratedShapes cuts datagen relations into k
// random contiguous shards, k from 2 to 6, for both variants and two
// worker counts per shard: the merged family and the couple sum must
// equal Run's at one worker.
func TestRandomSplitsOnGeneratedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, spec := range []datagen.Spec{
		{Attrs: 6, Rows: 300, Correlation: 0.5, Seed: 1},
		{Attrs: 12, Rows: 400, Correlation: 0.3, Seed: 2},
		{Attrs: 8, Rows: 501, Correlation: 0.4, Seed: 3},
	} {
		r, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		plan := mustPlan(t, partition.NewDatabase(r))
		for _, v := range []Variant{VariantCouples, VariantIdentifiers} {
			ref, err := plan.Run(context.Background(), v, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k := 2; k <= 6; k++ {
				cuts := make([]int, k-1)
				for i := range cuts {
					cuts[i] = rng.Intn(r.Rows() + 1)
				}
				slices.Sort(cuts)
				checkShards(t, plan, splitAt(r.Rows(), cuts...), v, Options{Workers: 1 + k%2}, ref)
			}
		}
	}
}

// TestLargeSingleClass stresses the quadratic couple generation of one
// big equivalence class (the paper's "equivalence classes are large"
// regime where Dep-Miner 2 is preferable), whole and in blocks of 100
// tuples.
func TestLargeSingleClass(t *testing.T) {
	const rows = 200
	cols := [][]int{make([]int, rows), make([]int, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i] = 0 // one giant class on attribute a
		cols[1][i] = i % 3
	}
	r, err := relation.FromCodes([]string{"a", "b"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	db := partition.NewDatabase(r)
	res, err := Couples(context.Background(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Couples != rows*(rows-1)/2 {
		t.Errorf("couples = %d, want %d", res.Couples, rows*(rows-1)/2)
	}
	// ag(r) = {A}: pairs share a always; pairs with i≡j (mod 3) are
	// duplicate tuples (rows are (0, i%3)), which collapse under set
	// semantics instead of contributing the full schema AB.
	want := attrset.Family{attrset.New(0)}
	if !res.Sets.Equal(want) {
		t.Errorf("ag = %v, want {A}", res.Sets.Strings())
	}
	ids, err := identifiers(context.Background(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ids.Sets.Equal(want) {
		t.Errorf("identifiers ag = %v", ids.Sets.Strings())
	}
	plan := mustPlan(t, db)
	checkShards(t, plan, blocks(rows, 100), VariantCouples, Options{}, res)
	checkShards(t, plan, blocks(rows, 100), VariantIdentifiers, Options{}, res)
}

// TestManySmallClasses stresses the other regime: many classes of size
// 2, whole and in blocks of 7 tuples, which cut some pairs apart.
func TestManySmallClasses(t *testing.T) {
	const pairs = 300
	rows := 2 * pairs
	cols := [][]int{make([]int, rows), make([]int, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i] = i / 2 // pairs on attribute a
		cols[1][i] = i     // all distinct on b
	}
	r, err := relation.FromCodes([]string{"a", "b"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	db := partition.NewDatabase(r)
	res, err := Couples(context.Background(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Couples != pairs {
		t.Errorf("couples = %d, want %d", res.Couples, pairs)
	}
	want := attrset.Family{attrset.New(0), attrset.Empty()}
	if !res.Sets.Equal(want) {
		t.Errorf("ag = %v, want {∅, A}", res.Sets.Strings())
	}
	checkShards(t, mustPlan(t, db), blocks(rows, 7), VariantCouples, Options{}, res)
}

// TestGenerateCouplesDedupAcrossOverlappingClasses builds overlapping MC
// classes through two attributes sharing tuple groups.
func TestGenerateCouplesDedupAcrossOverlappingClasses(t *testing.T) {
	// a groups {0,1,2}; b groups {1,2,3}: couple (1,2) lies in both.
	cols := [][]int{
		{0, 0, 0, 1, 2},
		{7, 5, 5, 5, 8},
	}
	r, err := relation.FromCodes([]string{"a", "b"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	db := partition.NewDatabase(r)
	res, err := Couples(context.Background(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Couples: from {0,1,2}: (0,1),(0,2),(1,2); from {1,2,3}: (1,2),(1,3),(2,3)
	// → 5 distinct.
	if res.Couples != 5 {
		t.Errorf("couples = %d, want 5", res.Couples)
	}
}

// TestQuickCouplesEqualsCrossCheck fuzzes couple counting: MC-generated
// distinct couples must equal the naive count of couples sharing ≥ 1
// attribute value.
func TestQuickCouplesEqualsCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(4)
		rows := rng.Intn(25)
		cols := make([][]int, n)
		for a := range cols {
			cols[a] = make([]int, rows)
			dom := 1 + rng.Intn(4)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(dom)
			}
		}
		r, err := relation.FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < rows; i++ {
			for j := i + 1; j < rows; j++ {
				if !r.AgreeSet(i, j).IsEmpty() {
					want++
				}
			}
		}
		db := partition.NewDatabase(r)
		res, err := Couples(context.Background(), db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Couples != want {
			t.Fatalf("iter %d: couples = %d, want %d", iter, res.Couples, want)
		}
	}
}
