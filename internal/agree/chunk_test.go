package agree

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attrset"
	"repro/internal/partition"
	"repro/internal/relation"
)

// TestChunkBoundariesExhaustive runs the couples algorithm with every
// chunk size from 1 to couples+1 on the paper example — chunk handling
// must never change the result or the couple count.
func TestChunkBoundariesExhaustive(t *testing.T) {
	db := partition.NewDatabase(relation.PaperExample())
	ref, err := Couples(context.Background(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for chunk := 1; chunk <= ref.Couples+1; chunk++ {
		res, err := Couples(context.Background(), db, Options{ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Sets.Equal(ref.Sets) {
			t.Fatalf("chunk=%d changed agree sets", chunk)
		}
		if res.Couples != ref.Couples {
			t.Fatalf("chunk=%d changed couple count", chunk)
		}
	}
}

// TestLargeSingleClass stresses the quadratic couple generation of one
// big equivalence class (the paper's "equivalence classes are large"
// regime where Dep-Miner 2 is preferable).
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
	res, err := Couples(context.Background(), db, Options{ChunkSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Couples != rows*(rows-1)/2 {
		t.Errorf("couples = %d, want %d", res.Couples, rows*(rows-1)/2)
	}
	wantChunks := (res.Couples + 99) / 100
	if res.Chunks != wantChunks {
		t.Errorf("chunks = %d, want %d", res.Chunks, wantChunks)
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
}

// TestManySmallClasses stresses the other regime: many classes of size 2.
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
	for _, opts := range []Options{{}, {ChunkSize: 7}} {
		res, err := Couples(context.Background(), db, opts)
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
	}
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
