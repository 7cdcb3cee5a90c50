package agree

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/relation"
)

// BenchmarkAgreeAllDistinct is the accumulator's worst case: 40 random
// binary attributes over 800 rows put every one of the 319,600 couples
// in MC, and almost every couple has an agree set of its own, so the
// distinct family is as large as the couple stream. One worker keeps the
// whole family in one accumulator. Each variant runs at the schema's
// width (one word) and, as width=wide, at four words.
func BenchmarkAgreeAllDistinct(b *testing.B) {
	r := randomRelation(b, rand.New(rand.NewSource(40)), 40, 800, 2)
	db := partition.NewDatabase(r)
	for _, v := range []Variant{VariantCouples, VariantIdentifiers} {
		for _, wide := range []bool{false, true} {
			b.Run(v.String()+widthName(wide), func(b *testing.B) {
				plan := mustPlan(b, db)
				plan.wide = wide
				b.ReportAllocs()
				for b.Loop() {
					if _, err := plan.Run(context.Background(), v, Options{Workers: 1}, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// widthName suffixes a benchmark forced to four-word sets.
func widthName(wide bool) string {
	if wide {
		return "/width=wide"
	}
	return ""
}

// BenchmarkPlan measures step 1's plan on the tall shape (12×30,000,
// c=0.5: 359,428 couples): the couple space build alone, and the build
// plus the Algorithm 2 sweep it plans, at one and two workers, the sweep
// at the schema's width (one word) and, as width=wide, at four words.
func BenchmarkPlan(b *testing.B) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 12, Rows: 30000, Correlation: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	db := partition.NewDatabase(r)
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		b.Run("NewPlan/workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := NewPlan(ctx, db, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, wide := range []bool{false, true} {
			b.Run("NewPlan+Run/workers="+strconv.Itoa(workers)+widthName(wide), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					p, err := NewPlan(ctx, db, workers)
					if err != nil {
						b.Fatal(err)
					}
					p.wide = wide
					if _, err := p.Run(ctx, VariantCouples, Options{Workers: workers}, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// largeClassRelation is 4 attributes over 8,000 rows whose first column
// is boolean: two classes of 4,000 tuples, each far wider than a stride,
// give 15,996,000 couples, nearly all in MC. The other columns draw
// from 1,000 values.
func largeClassRelation(b *testing.B) *relation.Relation {
	rng := rand.New(rand.NewSource(8))
	cols := make([][]int, 4)
	for a := range cols {
		cols[a] = make([]int, 8000)
		for i := range cols[a] {
			if a == 0 {
				cols[a][i] = i % 2
			} else {
				cols[a][i] = rng.Intn(1000)
			}
		}
	}
	r, err := relation.FromCodes(make([]string, len(cols)), cols)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkLargeClass measures both variants, plan included, where one
// tuple's couples span many strides: a task regenerates its range once,
// an Algorithm 3 stride must not re-walk the partners before it, and an
// Algorithm 2 worker must hold the widest tuple's sets in one buffer
// sized once per plan, not regrown per tuple.
func BenchmarkLargeClass(b *testing.B) {
	db := partition.NewDatabase(largeClassRelation(b))
	ctx := context.Background()
	for _, v := range []Variant{VariantCouples, VariantIdentifiers} {
		for _, workers := range []int{1, 2} {
			b.Run(v.String()+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					plan, err := NewPlan(ctx, db, workers)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := plan.Run(ctx, v, Options{Workers: workers}, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
