package hypergraph

import (
	"context"
	"testing"

	"repro/internal/agree"
	"repro/internal/datagen"
	"repro/internal/maxsets"
)

// BenchmarkAblation_TransversalAlgorithm compares the paper's levelwise
// Apriori search against classical Berge multiplication on the cmax
// hypergraphs of a benchmark relation (DESIGN.md §5, item 4).
func BenchmarkAblation_TransversalAlgorithm(b *testing.B) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 15, Rows: 2000, Correlation: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := agree.FromRelation(context.Background(), r)
	if err != nil {
		b.Fatal(err)
	}
	ms := maxsets.Compute(res.Sets, r.Arity())
	hs := make([]*Hypergraph, r.Arity())
	for a := 0; a < r.Arity(); a++ {
		hs[a] = Simplify(ms.CMax[a])
	}
	b.Run("levelwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, h := range hs {
				if _, err := h.MinimalTransversals(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("berge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, h := range hs {
				if _, err := h.MinimalTransversalsBerge(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
