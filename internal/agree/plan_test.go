package agree

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attrset"
	"repro/internal/partition"
	"repro/internal/relation"
)

// bruteCouples is the couple space's oracle: every couple t < u whose
// agree set is non-empty, encoded t<<32 | u in increasing order, straight
// from the relation.
func bruteCouples(r *relation.Relation) []uint64 {
	out := []uint64{}
	for t := 0; t < r.Rows(); t++ {
		for u := t + 1; u < r.Rows(); u++ {
			if !r.AgreeSet(t, u).IsEmpty() {
				out = append(out, uint64(t)<<32|uint64(u))
			}
		}
	}
	return out
}

// codesRelation builds a relation from dictionary-code columns.
func codesRelation(t *testing.T, cols [][]int) *relation.Relation {
	t.Helper()
	r, err := relation.FromCodes(make([]string, len(cols)), cols)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPlanCouplesMatchBruteForce: walking every tuple meets each
// brute-force couple with a non-empty agree set exactly once; every
// Split(n) shard and random tuple range [lo, hi) meets exactly the
// couples (t, u) with u in it, and ComputeShard counts them — all on one
// reused walker. Relations have 0, 1 and 2 rows, constant columns,
// duplicate rows, identical columns (the MC tie-break) and one giant
// class.
func TestPlanCouplesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var rels []*relation.Relation
	for _, rows := range []int{0, 1, 2} {
		for attrs := 1; attrs <= 3; attrs++ {
			rels = append(rels, randomRelation(t, rng, attrs, rows, 2))
		}
	}
	giant := [][]int{make([]int, 150), make([]int, 150), make([]int, 150)}
	for i := range giant[1] {
		giant[1][i] = i % 4
		giant[2][i] = i
	}
	rels = append(rels, codesRelation(t, giant))
	for iter := 0; iter < 150; iter++ {
		attrs, rows := 1+rng.Intn(6), rng.Intn(50)
		cols := make([][]int, attrs)
		for a := range cols {
			cols[a] = make([]int, rows)
			switch k := rng.Intn(6); {
			case k == 0: // constant column
			case k == 1 && a > 0: // identical to an earlier column
				copy(cols[a], cols[rng.Intn(a)])
			default:
				dom := 1 + rng.Intn(6)
				for i := range cols[a] {
					cols[a][i] = rng.Intn(dom)
				}
			}
		}
		for i := 1; i < rows; i++ {
			if rng.Intn(5) == 0 { // duplicate an earlier row
				src := rng.Intn(i)
				for a := range cols {
					cols[a][i] = cols[a][src]
				}
			}
		}
		rels = append(rels, codesRelation(t, cols))
	}
	for i, r := range rels {
		p := mustPlan(t, partition.NewDatabase(r))
		ws := &workerState[attrset.Set]{} // one walker for every regeneration below
		all := regenerate(p, Shard{0, r.Rows()}, ws)
		sorted := slices.Clone(all)
		slices.Sort(sorted)
		want := bruteCouples(r)
		if !slices.Equal(sorted, want) {
			t.Fatalf("relation %d (%d×%d): couples %v, want %v", i, r.Rows(), r.Arity(), sorted, want)
		}
		var cuts []Shard
		for _, shards := range []int{1, 2, 3, 7} {
			cuts = append(cuts, p.Split(shards)...)
		}
		for range 5 {
			lo := rng.Intn(r.Rows() + 1)
			cuts = append(cuts, Shard{lo, lo + rng.Intn(r.Rows()-lo+1)})
		}
		for _, sh := range cuts {
			got := regenerate(p, sh, ws)
			slices.Sort(got)
			wantIn := slices.DeleteFunc(slices.Clone(want), func(e uint64) bool { return coupleU(e) < sh.Start || coupleU(e) >= sh.End })
			if !slices.Equal(got, wantIn) {
				t.Fatalf("relation %d: range %v regenerates %v, want %v", i, sh, got, wantIn)
			}
			res, err := p.ComputeShard(context.Background(), sh, VariantCouples, Options{Workers: 2}, func(attrset.Set) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if res.Couples != len(wantIn) {
				t.Fatalf("relation %d: range %v counts %d couples, want %d", i, sh, res.Couples, len(wantIn))
			}
		}
	}
}

// regenerate walks the tuples of sh on ws, as a task does, and returns
// their couples encoded t<<32 | u.
func regenerate(p *Plan, sh Shard, ws *workerState[attrset.Set]) []uint64 {
	var out []uint64
	for u := sh.Start; u < sh.End; u++ {
		for _, t := range ws.walker.Walk(p.cs, u) {
			out = append(out, uint64(t)<<32|uint64(u))
		}
	}
	return out
}

func coupleU(e uint64) int { return int(uint32(e)) }

// TestCouplesWideMatchesNaive: the sweep assembles the same ag(r) as the
// naive scan at arities that span two and three set words, over tuple
// blocks of several sizes (chunk=0 is one block) at several worker
// counts, and the blocks' couples sum to the whole sweep's. The 40×150
// relation gives nearly every one of its 11,175 couples an agree set of
// its own, so a couple lost at a batch or block boundary changes ag(r).
func TestCouplesWideMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	for _, shape := range [][2]int{{70, 40}, {130, 40}, {40, 150}} {
		r := randomRelation(t, rng, shape[0], shape[1], 2)
		ref, err := Naive(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		db := partition.NewDatabase(r)
		whole, err := Couples(ctx, db, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan := mustPlan(t, db)
		for _, chunk := range []int{0, 1, 7, 63, 64, 65, 4097} {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("arity=%d/rows=%d/chunk=%d/workers=%d", shape[0], shape[1], chunk, workers), func(t *testing.T) {
					sets, couples := runShards(t, plan, blocks(shape[1], chunk), VariantCouples, Options{Workers: workers})
					if !sets.Equal(ref.Sets) {
						t.Fatalf("ag(r) differs from Naive: %d sets vs %d", len(sets), len(ref.Sets))
					}
					if couples != whole.Couples {
						t.Fatalf("blocks hold %d couples, the whole sweep %d", couples, whole.Couples)
					}
				})
			}
		}
	}
}
