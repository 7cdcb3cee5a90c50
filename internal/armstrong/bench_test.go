package armstrong

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/agree"
	"repro/internal/datagen"
	"repro/internal/maxsets"
	"repro/internal/partition"
)

// BenchmarkRealWorld builds the real-world Armstrong relation (eq. 2) of
// a wide and a narrow generated relation from their MAX(dep(r)).
func BenchmarkRealWorld(b *testing.B) {
	for _, spec := range []datagen.Spec{
		{Attrs: 30, Rows: 2000, Correlation: 0.3, Seed: 1},
		{Attrs: 8, Rows: 2400, Correlation: 0.5, Seed: 1},
	} {
		r, err := datagen.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		ag, err := agree.Couples(context.Background(), partition.NewDatabase(r), agree.Options{})
		if err != nil {
			b.Fatal(err)
		}
		maxSets := maxsets.Compute(ag.Sets, r.Arity()).AllMax()
		b.Run(fmt.Sprintf("%dx%d", spec.Attrs, spec.Rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RealWorld(r, maxSets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
