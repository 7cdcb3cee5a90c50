package agree

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/partition"
)

// BenchmarkAgreeAllDistinct is the accumulator's worst case: 40 random
// binary attributes over 800 rows put every one of the 319,600 couples
// in MC, and almost every couple has an agree set of its own, so the
// distinct family is as large as the couple stream. One worker keeps the
// whole family in one accumulator.
func BenchmarkAgreeAllDistinct(b *testing.B) {
	r := randomRelation(b, rand.New(rand.NewSource(40)), 40, 800, 2)
	db := partition.NewDatabase(r)
	for _, v := range []Variant{VariantCouples, VariantIdentifiers} {
		b.Run(v.String(), func(b *testing.B) {
			plan := NewPlan(db)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := plan.Run(context.Background(), v, Options{Workers: 1}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
