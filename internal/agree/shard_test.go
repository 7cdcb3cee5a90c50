package agree

// Shard differential tests: where shard boundaries fall must never
// change the merged family. ComputeShard over any contiguous partition
// of the couple space, merged and Finished, must be byte-identical to
// the single-node sweep — for both variants, every shard count, and
// every spill threshold (the distributed analogue of the spill
// contract in spill_test.go).

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

func TestSplitCoversCoupleSpace(t *testing.T) {
	r := relation.PaperExample()
	plan := mustPlan(t, partition.NewDatabase(r))
	total := plan.Couples()
	if total == 0 {
		t.Fatal("paper example has no couples")
	}
	for _, n := range []int{1, 2, 3, total, total + 5, 0, -1} {
		shards := plan.Split(n)
		next := 0
		for _, sh := range shards {
			if sh.Start != next || sh.End < sh.Start {
				t.Fatalf("Split(%d): shard [%d,%d) breaks contiguity at %d", n, sh.Start, sh.End, next)
			}
			next = sh.End
		}
		if next != total {
			t.Fatalf("Split(%d): shards cover [0,%d), want [0,%d)", n, next, total)
		}
		if n > 0 && n <= total && len(shards) != n {
			t.Fatalf("Split(%d) produced %d shards", n, len(shards))
		}
	}

	// An empty couple space still yields one well-formed empty shard.
	single, err := relation.FromCodes([]string{"a"}, [][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	empty := mustPlan(t, partition.NewDatabase(single))
	if shards := empty.Split(4); len(shards) != 1 || shards[0] != (Shard{0, 0}) {
		t.Fatalf("empty couple space Split = %v, want [{0 0}]", shards)
	}
}

func TestComputeShardRangeValidation(t *testing.T) {
	plan := mustPlan(t, partition.NewDatabase(relation.PaperExample()))
	for _, sh := range []Shard{{-1, 0}, {2, 1}, {0, plan.Couples() + 1}} {
		if _, err := plan.ComputeShard(context.Background(), sh, VariantCouples, Options{}, func(attrset.Set) error { return nil }); err == nil {
			t.Fatalf("ComputeShard(%v) accepted an invalid range", sh)
		}
	}
}

// shardedFamily computes the family by splitting the plan into n shards,
// collecting each shard's emitted run, merging through a spiller (the
// coordinator's merge shape), and Finishing once.
func shardedFamily(t *testing.T, plan *Plan, n int, v Variant, opts Options) attrset.Family {
	t.Helper()
	var runs [][]attrset.Set
	for _, sh := range plan.Split(n) {
		var run []attrset.Set
		res, err := plan.ComputeShard(context.Background(), sh, v, opts, func(s attrset.Set) error {
			run = append(run, s)
			return nil
		})
		if err != nil {
			t.Fatalf("ComputeShard(%v): %v", sh, err)
		}
		if res.Sets != int64(len(run)) {
			t.Fatalf("ComputeShard(%v): Sets=%d, emitted %d", sh, res.Sets, len(run))
		}
		for i := 1; i < len(run); i++ {
			if extsort.Compare(run[i-1], run[i]) >= 0 {
				t.Fatalf("ComputeShard(%v): emitted run not strictly sorted at %d", sh, i)
			}
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
	}
	sp := extsort.NewSpiller(t.TempDir(), nil)
	defer sp.Close()
	var merged attrset.Family
	if err := sp.Merge(runs, func(s attrset.Set) error {
		merged = append(merged, s)
		return nil
	}); err != nil {
		t.Fatalf("merging shard runs: %v", err)
	}
	return plan.Finish(merged)
}

func TestShardDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rels := []*relation.Relation{relation.PaperExample()}
	for iter := 0; iter < 6; iter++ {
		rels = append(rels, randomRelation(t, rng, 2+rng.Intn(5), 20+rng.Intn(60), 1+rng.Intn(4)))
	}
	for ri, r := range rels {
		db := partition.NewDatabase(r)
		for _, v := range []struct {
			name    string
			variant Variant
			ref     func(Options) (*Result, error)
		}{
			{"couples", VariantCouples, func(o Options) (*Result, error) { return Couples(context.Background(), db, o) }},
			{"identifiers", VariantIdentifiers, func(o Options) (*Result, error) { return identifiers(context.Background(), db, o) }},
		} {
			ref, err := v.ref(Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			plan := mustPlan(t, db)
			if plan.Couples() != ref.Couples {
				t.Fatalf("rel %d %s: plan couples %d, reference examined %d", ri, v.name, plan.Couples(), ref.Couples)
			}
			for _, n := range []int{1, 2, 4, 7} {
				for _, maxBytes := range []int64{0, 1} {
					opts := Options{Workers: 2, MaxAgreeBytes: maxBytes, SpillDir: t.TempDir()}
					got := shardedFamily(t, plan, n, v.variant, opts)
					if !slices.Equal(got, ref.Sets) {
						t.Fatalf("rel %d %s shards=%d max=%d: family differs from single-node reference",
							ri, v.name, n, maxBytes)
					}
				}
			}
		}
	}
}

// TestShardFamiliesDisjointUnion pins the dedup-merge insensitivity the
// byte-identity argument leans on: each couple lands in exactly one
// shard, so the multiset union of shard runs (before dedup) can only
// duplicate sets across shards, never within one — and the k-way dedup
// merge collapses exactly those.
func TestShardFamiliesDisjointUnion(t *testing.T) {
	r := relation.PaperExample()
	plan := mustPlan(t, partition.NewDatabase(r))
	ref, err := Couples(context.Background(), partition.NewDatabase(r), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[attrset.Set]bool)
	for _, sh := range plan.Split(3) {
		perShard := make(map[attrset.Set]bool)
		if _, err := plan.ComputeShard(context.Background(), sh, VariantCouples, Options{}, func(s attrset.Set) error {
			if perShard[s] {
				t.Fatalf("shard %v emitted a duplicate", sh)
			}
			perShard[s] = true
			seen[s] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range ref.Sets {
		if !s.IsEmpty() && !seen[s] {
			t.Fatalf("reference set %v missing from every shard", s)
		}
	}
}
