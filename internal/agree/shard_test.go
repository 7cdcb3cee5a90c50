package agree

// Shard differential tests: where shard boundaries fall must never
// change the merged family. ComputeShard over any contiguous partition
// of the tuples, merged and Finished, must be byte-identical to the
// single-node sweep — for both variants, every shard count, and
// every spill threshold (the distributed analogue of the spill
// contract in spill_test.go).

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attrset"
	"repro/internal/datagen"
	"repro/internal/extsort"
	"repro/internal/partition"
	"repro/internal/relation"
)

// TestSplitCoversCoupleSpace: Split(n) cuts the tuples into between 1
// and n contiguous shards that cover them all, each holding couples and
// costing at most its share of the walk cost plus one tuple's; a
// relation without couples has no shards.
func TestSplitCoversCoupleSpace(t *testing.T) {
	r := relation.PaperExample()
	plan := mustPlan(t, partition.NewDatabase(r))
	cost := plan.cs.Cost()
	widest := int64(0)
	for u := range r.Rows() {
		widest = max(widest, cost[u+1]-cost[u])
	}
	for _, n := range []int{1, 2, 3, 5, 6, 7, 12, 0, -1} {
		shards := plan.Split(n)
		if len(shards) < 1 || len(shards) > max(n, 1) {
			t.Fatalf("Split(%d) produced %d shards", n, len(shards))
		}
		next := 0
		for _, sh := range shards {
			if sh.Start != next || sh.End <= sh.Start {
				t.Fatalf("Split(%d): shard [%d,%d) breaks contiguity at %d", n, sh.Start, sh.End, next)
			}
			if _, couples := runShards(t, plan, []Shard{sh}, VariantCouples, Options{}); couples == 0 {
				t.Fatalf("Split(%d): shard %v holds no couple", n, sh)
			}
			if c := cost[sh.End] - cost[sh.Start]; c > cost[r.Rows()]/int64(max(n, 1))+1+widest {
				t.Fatalf("Split(%d): shard %v costs %d of %d", n, sh, c, cost[r.Rows()])
			}
			next = sh.End
		}
		if next != r.Rows() {
			t.Fatalf("Split(%d): shards cover [0,%d), want [0,%d)", n, next, r.Rows())
		}
	}

	single, err := relation.FromCodes([]string{"a"}, [][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	empty := mustPlan(t, partition.NewDatabase(single))
	if shards := empty.Split(4); len(shards) != 0 {
		t.Fatalf("Split of a relation without couples = %v, want none", shards)
	}
}

// TestSplitBalancesServeFleetShape: on the serve-fleet shape (8×2,001,
// c=0.4), the two halves of Split(2) hold couple counts within 2% of
// each other, so static remote shards cost their workers alike.
func TestSplitBalancesServeFleetShape(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r, err := datagen.Generate(datagen.Spec{Attrs: 8, Rows: 2001, Correlation: 0.4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		plan := mustPlan(t, partition.NewDatabase(r))
		shards := plan.Split(2)
		if len(shards) != 2 {
			t.Fatalf("seed %d: Split(2) = %v", seed, shards)
		}
		var couples [2]int
		for i, sh := range shards {
			_, couples[i] = runShards(t, plan, []Shard{sh}, VariantCouples, Options{Workers: 1})
		}
		if lo, hi := min(couples[0], couples[1]), max(couples[0], couples[1]); float64(hi-lo) > 0.02*float64(hi) {
			t.Fatalf("seed %d: halves %v hold %v couples", seed, shards, couples)
		}
	}
}

func TestComputeShardRangeValidation(t *testing.T) {
	plan := mustPlan(t, partition.NewDatabase(relation.PaperExample()))
	for _, sh := range []Shard{{-1, 0}, {2, 1}, {0, plan.Rows() + 1}} {
		if _, err := plan.ComputeShard(context.Background(), sh, VariantCouples, Options{}, func(attrset.Set) error { return nil }); err == nil {
			t.Fatalf("ComputeShard(%v) accepted an invalid range", sh)
		}
	}
}

// runShards computes the family over the given shards: each shard's
// emitted run is collected and checked, the runs are merged through a
// spiller (the coordinator's merge shape), and Finish runs once with
// the shards' couple sum, which is returned too.
func runShards(t *testing.T, plan *Plan, shards []Shard, v Variant, opts Options) (attrset.Family, int) {
	t.Helper()
	var runs [][]attrset.Set
	couples := 0
	for _, sh := range shards {
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
		couples += res.Couples
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
	return plan.Finish(merged, couples), couples
}

// blocks cuts tuples [0, rows) into consecutive blocks of size tuples,
// the last one shorter; size 0 means one block.
func blocks(rows, size int) []Shard {
	if size == 0 {
		size = max(rows, 1)
	}
	var out []Shard
	for lo := 0; lo < rows; lo += size {
		out = append(out, Shard{lo, min(lo+size, rows)})
	}
	return out
}

// splitAt cuts tuples [0, rows) at the given ascending cut points.
func splitAt(rows int, cuts ...int) []Shard {
	out := make([]Shard, 0, len(cuts)+1)
	lo := 0
	for _, c := range append(cuts, rows) {
		out = append(out, Shard{lo, c})
		lo = c
	}
	return out
}

// checkShards asserts that the shards, merged and Finished, give ref's
// family, and that their couple counts sum to ref's.
func checkShards(t *testing.T, plan *Plan, shards []Shard, v Variant, opts Options, ref *Result) {
	t.Helper()
	got, couples := runShards(t, plan, shards, v, opts)
	if !slices.Equal(got, ref.Sets) {
		t.Fatalf("%s over shards %v: family %v, want %v", v, shards, got.Strings(), ref.Sets.Strings())
	}
	if couples != ref.Couples {
		t.Fatalf("%s over shards %v: %d couples, want %d", v, shards, couples, ref.Couples)
	}
}

func TestShardDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rels := []*relation.Relation{relation.PaperExample()}
	for iter := 0; iter < 6; iter++ {
		rels = append(rels, randomRelation(t, rng, 2+rng.Intn(5), 20+rng.Intn(60), 1+rng.Intn(4)))
	}
	for _, r := range rels {
		plan := mustPlan(t, partition.NewDatabase(r))
		for _, v := range []Variant{VariantCouples, VariantIdentifiers} {
			ref, err := plan.Run(context.Background(), v, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 4, 7} {
				for _, maxBytes := range []int64{0, 1} {
					opts := Options{Workers: 2, MaxAgreeBytes: maxBytes, SpillDir: t.TempDir()}
					checkShards(t, plan, plan.Split(n), v, opts, ref)
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
