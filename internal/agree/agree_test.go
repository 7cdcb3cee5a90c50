package agree

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attrset"
	"repro/internal/partition"
	"repro/internal/relation"
)

// identifiers runs Algorithm 3 over db's whole couple space, locally.
func identifiers(ctx context.Context, db *partition.Database, opts Options) (*Result, error) {
	return NewPlan(db).Run(ctx, VariantIdentifiers, opts, nil)
}

func mustSets(t *testing.T, specs ...string) attrset.Family {
	t.Helper()
	out := make(attrset.Family, 0, len(specs))
	for _, s := range specs {
		set, ok := attrset.Parse(s)
		if !ok {
			t.Fatalf("bad spec %q", s)
		}
		out = append(out, set)
	}
	return out
}

// Paper Example 5/8: ag(r) = {∅, A, BDE, CE, E}.
func TestPaperExampleAllAlgorithms(t *testing.T) {
	r := relation.PaperExample()
	db := partition.NewDatabase(r)
	want := mustSets(t, "∅", "A", "BDE", "CE", "E")

	algos := map[string]func() (*Result, error){
		"naive":   func() (*Result, error) { return Naive(context.Background(), r) },
		"couples": func() (*Result, error) { return Couples(context.Background(), db, Options{}) },
		"ids":     func() (*Result, error) { return identifiers(context.Background(), db, Options{}) },
		"default": func() (*Result, error) { return FromRelation(context.Background(), r) },
	}
	for name, fn := range algos {
		res, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Sets.Equal(want) {
			t.Errorf("%s: ag(r) = %v, want %v", name, res.Sets.Strings(), want.Strings())
		}
	}
}

func TestPaperExampleCoupleCount(t *testing.T) {
	// Example 5: MC generates exactly 6 couples:
	// (1,2),(1,6),(2,7),(3,4),(3,5),(4,5).
	db := partition.NewDatabase(relation.PaperExample())
	res, err := Couples(context.Background(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Couples != 6 {
		t.Errorf("Couples = %d, want 6", res.Couples)
	}
	// Naive examines all 21 couples of the 7 tuples.
	naive, err := Naive(context.Background(), relation.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	if naive.Couples != 21 {
		t.Errorf("naive couples = %d, want 21", naive.Couples)
	}
}

func TestChunkingMatchesUnchunked(t *testing.T) {
	db := partition.NewDatabase(relation.PaperExample())
	whole, err := Couples(context.Background(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 2, 3, 5, 7, 100} {
		res, err := Couples(context.Background(), db, Options{ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Sets.Equal(whole.Sets) {
			t.Errorf("chunk=%d: %v != %v", chunk, res.Sets.Strings(), whole.Sets.Strings())
		}
		wantChunks := (res.Couples + chunk - 1) / chunk
		if res.Chunks != wantChunks {
			t.Errorf("chunk=%d: Chunks = %d, want %d", chunk, res.Chunks, wantChunks)
		}
	}
}

func TestEmptySetOnlyWhenUncovered(t *testing.T) {
	// Two tuples disagreeing everywhere: ag(r) = {∅}.
	r, err := relation.FromRows([]string{"a", "b"}, [][]string{{"1", "x"}, {"2", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	db := partition.NewDatabase(r)
	for name, res := range runAll(t, r, db) {
		if !res.Sets.Equal(attrset.Family{attrset.Empty()}) {
			t.Errorf("%s: ag = %v, want {∅}", name, res.Sets.Strings())
		}
	}

	// Two tuples agreeing on b: ag(r) = {B} — no ∅.
	r2, err := relation.FromRows([]string{"a", "b"}, [][]string{{"1", "x"}, {"2", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	db2 := partition.NewDatabase(r2)
	for name, res := range runAll(t, r2, db2) {
		if !res.Sets.Equal(attrset.Family{attrset.Single(1)}) {
			t.Errorf("%s: ag = %v, want {B}", name, res.Sets.Strings())
		}
	}
}

func TestDegenerateRelations(t *testing.T) {
	// Empty relation and single tuple: no couples, ag(r) = {}.
	for _, rows := range [][][]string{{}, {{"1", "x"}}} {
		r, err := relation.FromRows([]string{"a", "b"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		db := partition.NewDatabase(r)
		for name, res := range runAll(t, r, db) {
			if len(res.Sets) != 0 {
				t.Errorf("%s rows=%d: ag = %v, want empty", name, len(rows), res.Sets.Strings())
			}
		}
	}
}

// TestDuplicateTuplesCollapse pins the set semantics of duplicate rows
// (the paper defines a relation as a *set* of tuples): a couple of
// identical tuples never contributes the full schema R to ag(r), in any
// of the three algorithms.
func TestDuplicateTuplesCollapse(t *testing.T) {
	r, err := relation.FromRows([]string{"a", "b"}, [][]string{{"1", "x"}, {"1", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	db := partition.NewDatabase(r)
	for name, res := range runAll(t, r, db) {
		if len(res.Sets) != 0 {
			t.Errorf("%s: ag = %v, want empty (duplicates collapse)", name, res.Sets.Strings())
		}
	}
}

// TestDuplicateRowsMatchDeduplicated is the regression test for duplicate
// handling: on a relation with duplicate rows, all three algorithms must
// produce exactly the ag(r) of the deduplicated relation.
func TestDuplicateRowsMatchDeduplicated(t *testing.T) {
	rows := [][]string{
		{"1", "x", "p"},
		{"1", "x", "p"}, // duplicate of tuple 0
		{"1", "y", "q"},
		{"2", "y", "q"},
		{"2", "y", "q"}, // duplicate of tuple 3
		{"3", "z", "p"},
	}
	r, err := relation.FromRows([]string{"a", "b", "c"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	dedup := r.Deduplicate()
	want, err := Naive(context.Background(), dedup)
	if err != nil {
		t.Fatal(err)
	}
	if full := attrset.Universe(3); want.Sets.Contains(full) {
		t.Fatalf("dedup baseline still contains the full schema: %v", want.Sets.Strings())
	}
	db := partition.NewDatabase(r)
	for name, res := range runAll(t, r, db) {
		if !res.Sets.Equal(want.Sets) {
			t.Errorf("%s on duplicates: ag = %v, want %v (ag of deduplicated relation)",
				name, res.Sets.Strings(), want.Sets.Strings())
		}
	}
}

func runAll(t *testing.T, r *relation.Relation, db *partition.Database) map[string]*Result {
	t.Helper()
	out := map[string]*Result{}
	var err error
	if out["naive"], err = Naive(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if out["couples"], err = Couples(context.Background(), db, Options{}); err != nil {
		t.Fatal(err)
	}
	if out["ids"], err = identifiers(context.Background(), db, Options{}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLemma1And2Property cross-checks the three algorithms on random
// relations: the stripped-partition characterisations (Lemmas 1 and 2) must
// reproduce the naive ag(r) exactly.
func TestLemma1And2Property(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 120; iter++ {
		n := 1 + rng.Intn(6)
		rows := rng.Intn(25)
		cols := make([][]int, n)
		for a := range cols {
			cols[a] = make([]int, rows)
			dom := 1 + rng.Intn(6)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(dom)
			}
		}
		r, err := relation.FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		db := partition.NewDatabase(r)
		res := runAll(t, r, db)
		if !res["couples"].Sets.Equal(res["naive"].Sets) {
			t.Fatalf("Lemma 1 violated (iter %d): couples=%v naive=%v",
				iter, res["couples"].Sets.Strings(), res["naive"].Sets.Strings())
		}
		if !res["ids"].Sets.Equal(res["naive"].Sets) {
			t.Fatalf("Lemma 2 violated (iter %d): ids=%v naive=%v",
				iter, res["ids"].Sets.Strings(), res["naive"].Sets.Strings())
		}
		if res["couples"].Couples != res["ids"].Couples {
			t.Fatalf("couple counts differ: %d vs %d",
				res["couples"].Couples, res["ids"].Couples)
		}
		if res["couples"].Couples > res["naive"].Couples {
			t.Fatalf("MC couples (%d) exceed naive couples (%d)",
				res["couples"].Couples, res["naive"].Couples)
		}
	}
}

func TestCancellation(t *testing.T) {
	// Build a relation large enough that cancellation is observed.
	rows := 600
	cols := [][]int{make([]int, rows), make([]int, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i] = i % 2 // two huge classes → ~90k couples
		cols[1][i] = i
	}
	r, err := relation.FromCodes([]string{"a", "b"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	db := partition.NewDatabase(r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Naive(ctx, r); err == nil {
		t.Error("naive should observe cancellation")
	}
	if _, err := Couples(ctx, db, Options{ChunkSize: 10}); err == nil {
		t.Error("couples should observe cancellation")
	}
	if _, err := identifiers(ctx, db, Options{}); err == nil {
		t.Error("identifiers should observe cancellation")
	}
}

func TestAgreeSetsNeverContainFullSchemaWithoutDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(4)
		rows := 2 + rng.Intn(20)
		cols := make([][]int, n)
		for a := range cols {
			cols[a] = make([]int, rows)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(3)
			}
		}
		r, err := relation.FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		r = r.Deduplicate()
		res, err := FromRelation(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sets.Contains(r.Schema()) {
			t.Fatalf("deduplicated relation produced R as agree set")
		}
	}
}
