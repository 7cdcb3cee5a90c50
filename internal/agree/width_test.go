package agree

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attrset"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/relation"
)

// widthRun is what one plan computes for one variant and Options on
// every path: the local Plan.Run, the emitted runs and reports of two
// ComputeShard calls over the plan's halves, and a Plan.Run fanned out
// over two shards, the first served by a fakeRemote at the plan's width
// and the second swept locally.
type widthRun struct {
	local, fanned *Result
	runs          [][]attrset.Set
	shards        []ShardResult
}

func runWidth(t *testing.T, p *Plan, v Variant, opts Options) widthRun {
	t.Helper()
	ctx := context.Background()
	var out widthRun
	var err error
	if out.local, err = p.Run(ctx, v, opts, nil); err != nil {
		t.Fatal(err)
	}
	for _, sh := range p.Split(2) {
		var run []attrset.Set
		res, err := p.ComputeShard(ctx, sh, v, opts, func(s attrset.Set) error {
			run = append(run, s)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out.runs = append(out.runs, run)
		out.shards = append(out.shards, *res)
	}
	remote := &fakeRemote{plan: p, n: 2, fail: func(i int) error {
		if i == 1 {
			return errors.New("worker down")
		}
		return nil
	}}
	if out.fanned, err = p.Run(ctx, v, opts, remote); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepWidthsAgree is the width differential of step 1: every
// relation runs on a plan at its own width (one word up to 64
// attributes) and on one forced to four words, for both variants,
// Workers 1/2/3 and MaxAgreeBytes 0, 1 and 1024, through the local
// sweep, ComputeShard and a two-shard fan-out. The families, couple
// counts and emitted shard runs must be identical across widths, and
// ag(r) equal to the naive scan's; at one worker, where the plan fixes
// every spill boundary, so must the spill counters. The relations are
// datagen's at 63, 64 and 65 attributes, either side of one word, and
// the random shapes the other agree tests use.
func TestSweepWidthsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var rels []*relation.Relation
	for _, attrs := range []int{63, 64, 65} {
		r, err := datagen.Generate(datagen.Spec{Attrs: attrs, Rows: 200, Correlation: 0.5, Seed: uint64(attrs)})
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	for _, shape := range [][3]int{{5, 400, 2}, {12, 300, 3}, {40, 150, 2}, {70, 40, 2}} {
		rels = append(rels, randomRelation(t, rng, shape[0], shape[1], shape[2]))
	}
	ctx := context.Background()
	dir := t.TempDir()
	for ri, r := range rels {
		ref, err := Naive(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		db := partition.NewDatabase(r)
		own, wide := mustPlan(t, db), mustPlan(t, db)
		wide.wide = true
		if own.narrow() != (r.Arity() <= attrset.NarrowAttrs) || wide.narrow() {
			t.Fatalf("relation %d (%d attributes): narrow %v, forced wide %v", ri, r.Arity(), own.narrow(), wide.narrow())
		}
		for _, v := range []Variant{VariantCouples, VariantIdentifiers} {
			for _, workers := range []int{1, 2, 3} {
				for _, maxBytes := range []int64{0, 1, 1024} {
					name := fmt.Sprintf("relation %d (%d×%d) %s workers=%d max=%d", ri, r.Arity(), r.Rows(), v, workers, maxBytes)
					opts := Options{Workers: workers, MaxAgreeBytes: maxBytes, SpillDir: dir}
					a, b := runWidth(t, own, v, opts), runWidth(t, wide, v, opts)
					if !reflect.DeepEqual(a.local.Sets, ref.Sets) || !reflect.DeepEqual(b.local.Sets, ref.Sets) {
						t.Fatalf("%s: ag(r) at the plan's width or at four words differs from the naive scan", name)
					}
					if !reflect.DeepEqual(a.fanned.Sets, ref.Sets) || !reflect.DeepEqual(b.fanned.Sets, ref.Sets) {
						t.Fatalf("%s: the fanned-out ag(r) differs from the naive scan", name)
					}
					if a.local.Couples != b.local.Couples || a.fanned.Couples != a.local.Couples || b.fanned.Couples != b.local.Couples {
						t.Fatalf("%s: couples %d/%d local, %d/%d fanned out", name, a.local.Couples, b.local.Couples, a.fanned.Couples, b.fanned.Couples)
					}
					if !reflect.DeepEqual(a.runs, b.runs) {
						t.Fatalf("%s: the shards' emitted runs differ across widths", name)
					}
					sum := 0
					for i := range a.shards {
						if a.shards[i].Couples != b.shards[i].Couples || a.shards[i].Sets != b.shards[i].Sets {
							t.Fatalf("%s: shard %d reports %+v, at four words %+v", name, i, a.shards[i], b.shards[i])
						}
						sum += a.shards[i].Couples
					}
					if sum != a.local.Couples {
						t.Fatalf("%s: shards hold %d couples, the sweep %d", name, sum, a.local.Couples)
					}
					if workers > 1 {
						continue
					}
					if a.local.Spill != b.local.Spill || a.fanned.Spill != b.fanned.Spill {
						t.Fatalf("%s: spill %+v / %+v fanned out, at four words %+v / %+v", name, a.local.Spill, a.fanned.Spill, b.local.Spill, b.fanned.Spill)
					}
					for i := range a.shards {
						if a.shards[i].Spill != b.shards[i].Spill {
							t.Fatalf("%s: shard %d spills %+v, at four words %+v", name, i, a.shards[i].Spill, b.shards[i].Spill)
						}
					}
					if spilled := a.local.Spill.RunsSpilled > 0; spilled == (maxBytes == 0) && maxBytes != 1024 {
						t.Fatalf("%s: spilled %d runs", name, a.local.Spill.RunsSpilled)
					}
				}
			}
		}
	}
}

// TestAccumKeysDiffer: each accumulator draws its own hash keys on its
// first insert, so one accumulator's probe sequence tells nothing of
// another's.
func TestAccumKeysDiffer(t *testing.T) {
	var a, b setAccum[attrset.Narrow]
	a.insert(attrset.Narrow{1})
	b.insert(attrset.Narrow{1})
	if a.keys == [2]uint64{} || a.keys == b.keys {
		t.Fatalf("fresh accumulators drew keys %x and %x", a.keys, b.keys)
	}
}
