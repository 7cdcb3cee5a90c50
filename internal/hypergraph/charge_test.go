package hypergraph

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/agree"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/maxsets"
	"repro/internal/partition"
)

// TestLevelChargesOnWideShape pins the governed footprint of the
// levelwise search on the wide-lhs shape (30 attributes × 2,000 rows,
// c=0.3, seed 1; cmax families wrapped as core wraps them). Each level
// charges its generated width, the transversals it emits included, so
// the budget's total is Σ of level widths, 900 + 12,180 + 108,081 + 26,
// and the HypergraphLevel point fires once per level, 116 times over the
// 30 searches — whatever the worker count, and however early a level's
// transversals leave the frontier. Budget cutoffs therefore trip at the
// same level as ever.
func TestLevelChargesOnWideShape(t *testing.T) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 30, Rows: 2000, Correlation: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := agree.Couples(context.Background(), partition.NewDatabase(r), agree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := maxsets.Compute(res.Sets, r.Arity())
	hs := make([]*Hypergraph, r.Arity())
	for a := range hs {
		hs[a] = Unchecked(ms.CMax[a])
	}
	defer faultinject.Reset()
	for _, workers := range []int{1, 2} {
		var levels atomic.Int64
		faultinject.Set(faultinject.HypergraphLevel, func() error {
			levels.Add(1)
			return nil
		})
		b := guard.New(guard.Limits{})
		if _, err := TransversalsAll(context.Background(), hs, workers, b); err != nil {
			t.Fatal(err)
		}
		if got := b.Used(); got != 121187 {
			t.Errorf("workers=%d: budget used %d, want 121187", workers, got)
		}
		if got := levels.Load(); got != 116 {
			t.Errorf("workers=%d: %d levels fired, want 116", workers, got)
		}
	}
}
