package agree

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attrset"
	"repro/internal/partition"
	"repro/internal/relation"
)

// refAgreeSets is the map-based reference the sorted-run accumulator
// replaced: every couple's agree set deduplicated through a hash set,
// then sorted canonically. Computed directly from the definition of
// ag(r), independent of the partition machinery. Full-schema agree sets
// (duplicate rows) are skipped, matching the package contract.
func refAgreeSets(r *relation.Relation) attrset.Family {
	full := attrset.Universe(r.Arity())
	seen := make(map[attrset.Set]struct{})
	for i := 0; i < r.Rows(); i++ {
		for j := i + 1; j < r.Rows(); j++ {
			if s := r.AgreeSet(i, j); s != full {
				seen[s] = struct{}{}
			}
		}
	}
	out := make(attrset.Family, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	out.Sort()
	return out
}

func randQuickRelation(rng *rand.Rand) *relation.Relation {
	n := 1 + rng.Intn(5)
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
		panic(err)
	}
	return r
}

// TestQuickSortedDedupMatchesMapReference pits the encode–sort–compact
// agree-set kernels (Algorithms 2 and 3 and the naive scan, across
// worker counts) against the map-based dedup on random relations.
func TestQuickSortedDedupMatchesMapReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(63))
	for iter := 0; iter < 80; iter++ {
		r := randQuickRelation(rng)
		want := refAgreeSets(r)
		db := partition.NewDatabase(r)
		for _, workers := range []int{1, 3} {
			got, err := Couples(ctx, db, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Sets.Equal(want) {
				t.Fatalf("Couples(workers=%d) = %v, map reference %v",
					workers, got.Sets.Strings(), want.Strings())
			}
			got, err = identifiers(ctx, db, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Sets.Equal(want) {
				t.Fatalf("identifiers(workers=%d) = %v, map reference %v",
					workers, got.Sets.Strings(), want.Strings())
			}
		}
		got, err := Naive(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Sets.Equal(want) {
			t.Fatalf("Naive = %v, map reference %v", got.Sets.Strings(), want.Strings())
		}
	}
}

// TestQuickSetAccumMatchesMapDedup drives the sorted-run accumulator
// itself with random batches (duplicates within and across batches) and
// checks it against a hash-set dedup of the same stream.
func TestQuickSetAccumMatchesMapDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for iter := 0; iter < 100; iter++ {
		var ac setAccum
		seen := make(map[attrset.Set]struct{})
		for batches := rng.Intn(6); batches >= 0; batches-- {
			batch := make([]attrset.Set, rng.Intn(10))
			for i := range batch {
				var s attrset.Set
				for a := 0; a < 6; a++ {
					if rng.Intn(2) == 0 {
						s = s.With(a)
					}
				}
				batch[i] = s
				seen[s] = struct{}{}
			}
			ac.absorb(batch)
		}
		want := make(attrset.Family, 0, len(seen))
		for s := range seen {
			want = append(want, s)
		}
		want.Sort()
		if !attrset.Family(ac.sorted).Equal(want) {
			t.Fatalf("setAccum = %v, map dedup %v",
				attrset.Family(ac.sorted).Strings(), want.Strings())
		}
	}
}
