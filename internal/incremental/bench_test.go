package incremental

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// BenchmarkSeed compares the two ways to build a miner over existing
// tuples on serve-ingest's shape (8 attrs x 2,400 rows, c=0.4): "sweep"
// seeds ag(r) with one Algorithm 2 sweep over the store (FromStore, one
// worker), "inserts" feeds one Insert per row.
func BenchmarkSeed(b *testing.B) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 8, Rows: 2400, Correlation: 0.4, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]string, r.Rows())
	for t := range rows {
		rows[t] = r.Row(t)
	}
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			st, err := relation.StoreFromRows(r.Names(), rows)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := FromStore(context.Background(), st, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inserts", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			m, err := New(r.Names())
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range rows {
				if err := m.Insert(row); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
