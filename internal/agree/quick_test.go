package agree

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attrset"
	"repro/internal/extsort"
	"repro/internal/partition"
	"repro/internal/relation"
)

// refAgreeSets is the map-based reference for the hash-indexed
// accumulator: every couple's agree set deduplicated through a hash set,
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

// TestQuickSortedDedupMatchesMapReference pits the agree-set kernels
// (Algorithms 2 and 3 and the naive scan, across worker counts) against
// the map-based dedup on random relations.
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

// TestQuickSetAccumMatchesMapDedup drives the accumulator itself with
// random streams of batches — sets over all four words, duplicates within
// and across batches, the skipped full set among them, enough distinct
// sets to force several rehashes — and checks the merged family against
// a Go-map dedup of the same stream, under two key pairs, in memory and with
// a spiller at several thresholds. The spill counters must follow the
// rule "spill after a batch once the distinct sets since the last spill
// fill the threshold", and the merged family must be exact-size in
// memory and share no memory with the workers.
func TestQuickSetAccumMatchesMapDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	dir := t.TempDir()
	for iter := 0; iter < 40; iter++ {
		full := attrset.Universe(1 + rng.Intn(attrset.MaxAttrs))
		pool := make([]attrset.Set, 1+rng.Intn(700))
		for i := range pool {
			for w := range pool[i] {
				pool[i][w] = rng.Uint64() & rng.Uint64()
			}
		}
		pool[0] = full
		stream := make([][]attrset.Set, 1+rng.Intn(12))
		seen := make(map[attrset.Set]struct{})
		for b := range stream {
			stream[b] = make([]attrset.Set, rng.Intn(200))
			for i := range stream[b] {
				s := pool[rng.Intn(len(pool))]
				stream[b][i] = s
				if s != full {
					seen[s] = struct{}{}
				}
			}
		}
		want := make(attrset.Family, 0, len(seen))
		for s := range seen {
			want = append(want, s)
		}
		want.Sort()

		workers := 1 + rng.Intn(3)
		for _, keys := range [][2]uint64{newKeys(), newKeys()} {
			for _, limit := range []int64{0, 1, 100, 1 << 10} {
				var sp *extsort.Spiller
				if limit > 0 {
					sp = extsort.NewSpiller(dir, nil)
				}
				locals := make([]*workerState[attrset.Set], workers)
				for w := range locals {
					locals[w] = &workerState[attrset.Set]{accum: setAccum[attrset.Set]{keys: keys, sp: sp, limit: limit}}
				}
				// The rule's model: per worker, the distinct sets since
				// its last spill.
				model := make([]map[attrset.Set]struct{}, workers)
				var runs, spilled int64
				for b, batch := range stream {
					w := b % workers
					if err := locals[w].accum.absorb(slices.Clone(batch), full); err != nil {
						t.Fatal(err)
					}
					if model[w] == nil {
						model[w] = make(map[attrset.Set]struct{})
					}
					for _, s := range batch {
						if s != full {
							model[w][s] = struct{}{}
						}
					}
					if limit > 0 && int64(len(model[w]))*extsort.SetBytes >= limit {
						runs++
						spilled += int64(len(model[w]))
						model[w] = nil
					}
				}
				if sp != nil {
					if st := sp.Stats(); st.RunsSpilled != runs || st.SpilledSets != spilled {
						t.Fatalf("limit %d: spilled %d runs / %d sets, the rule says %d / %d",
							limit, st.RunsSpilled, st.SpilledSets, runs, spilled)
					}
				}
				var lists []attrset.Family
				for _, ws := range locals {
					lists = append(lists, slices.Clone(attrset.Family(ws.accum.sets)))
				}
				got, err := mergeAccums(locals, sp)
				if sp != nil {
					sp.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
				if limit == 0 && len(got) != cap(got) {
					t.Fatalf("merged family len %d, cap %d: not exact-size", len(got), cap(got))
				}
				sorted := slices.Clone(got)
				sorted.Sort()
				if !slices.Equal(sorted, want) {
					t.Fatalf("limit %d: setAccum union = %d sets, map dedup %d", limit, len(got), len(want))
				}
				for i := range got {
					got[i] = full // shows through any worker list the family aliases
				}
				for w, ws := range locals {
					now := slices.Clone(attrset.Family(ws.accum.sets))
					now.Sort()
					lists[w].Sort()
					if !slices.Equal(now, lists[w]) {
						t.Fatalf("limit %d: writing the merged family changed worker %d's list", limit, w)
					}
				}
			}
		}
	}
}
