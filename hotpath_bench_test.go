package depminer

// Per-phase hot-path benchmarks: one Benchmark per pipeline kernel, each
// reporting allocations. These are the regression guard behind
// BENCH_HOTPATH.json — run them with
//
//	go test -run xxx -bench 'Hotpath' -benchtime 2s -count 5 . > new.txt
//	go run ./scripts/benchcmp old.txt new.txt
//
// and compare against the recorded baseline before merging changes that
// touch internal/agree, internal/hypergraph or internal/partition. All
// benchmarks use only the stable public API of the phases, so the same
// file measures both the map-based and the flat/sorted-slice kernels.

import (
	"context"
	"testing"

	"repro/internal/agree"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/maxsets"
	"repro/internal/partition"
	"repro/internal/tane"
)

// BenchmarkHotpathPartition isolates the stripped-partition database
// extraction (the pre-processing phase): one π̂_A per attribute.
func BenchmarkHotpathPartition(b *testing.B) {
	r := dataset(b, 20, 5000, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := partition.NewDatabase(r)
		if db.Arity() != 20 {
			b.Fatal("bad database")
		}
	}
}

// BenchmarkHotpathProduct isolates the partition-product kernel (TANE's
// STRIPPED_PRODUCT) with a reused prober, the configuration of the TANE
// level loop.
func BenchmarkHotpathProduct(b *testing.B) {
	r := dataset(b, 20, 5000, 0.3)
	db := partition.NewDatabase(r)
	pr := partition.NewProber(r.Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := 1; a < r.Arity(); a++ {
			p := pr.Product(db.Attr[0], db.Attr[a])
			_ = p.NumClasses()
		}
	}
}

// BenchmarkHotpathPlan isolates Algorithm 2's couple generation on the
// tall shape: the MC test plus the (t, u)-ordered couple list.
func BenchmarkHotpathPlan(b *testing.B) {
	r := dataset(b, 12, 30000, 0.5)
	db := partition.NewDatabase(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if agree.NewPlan(db).Couples() == 0 {
			b.Fatal("no couples")
		}
	}
}

// BenchmarkHotpathAgreeCouples isolates step 1 via Algorithm 2: MC couple
// generation plus the chunked partition sweep and agree-set dedup.
func BenchmarkHotpathAgreeCouples(b *testing.B) {
	r := dataset(b, 20, 5000, 0.3)
	db := partition.NewDatabase(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agree.Couples(context.Background(), db, agree.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathAgreeIdentifiers isolates step 1 via Algorithm 3: the
// identifier-list intersections and agree-set dedup.
func BenchmarkHotpathAgreeIdentifiers(b *testing.B) {
	r := dataset(b, 20, 5000, 0.3)
	db := partition.NewDatabase(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agree.NewPlan(db).Run(context.Background(), agree.VariantIdentifiers, agree.Options{Workers: 1}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathMaxSets isolates step 2: CMAX_SET (maxsets.Compute)
// plus the MAX(dep(r)) union the Armstrong step reads, on the wide-lhs
// shape where the agree sets are many and the schema is wide.
func BenchmarkHotpathMaxSets(b *testing.B) {
	r := dataset(b, 30, 2000, 0.3)
	res, err := agree.FromRelation(context.Background(), r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(maxsets.Compute(res.Sets, r.Arity()).AllMax()) == 0 {
			b.Fatal("no maximal sets")
		}
	}
}

// BenchmarkHotpathTransversal isolates steps 3–4: the levelwise minimal
// transversal search over every per-attribute cmax hypergraph.
func BenchmarkHotpathTransversal(b *testing.B) {
	r := dataset(b, 20, 2000, 0.3)
	res, err := agree.FromRelation(context.Background(), r)
	if err != nil {
		b.Fatal(err)
	}
	ms := maxsets.Compute(res.Sets, r.Arity())
	hs := make([]*hypergraph.Hypergraph, r.Arity())
	for a := 0; a < r.Arity(); a++ {
		hs[a] = hypergraph.Simplify(ms.CMax[a])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range hs {
			if _, err := h.MinimalTransversals(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHotpathTANE isolates the TANE lattice search (level loop,
// partition products, validity tests) on the same workload.
func BenchmarkHotpathTANE(b *testing.B) {
	r := dataset(b, 15, 2000, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tane.Run(context.Background(), r, tane.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathPipeline measures the full single-core Dep-Miner
// pipeline (partition → agree → cmax → transversals → FDs), the
// allocation budget the acceptance criteria track.
func BenchmarkHotpathPipeline(b *testing.B) {
	r := dataset(b, 20, 5000, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Discover(context.Background(), r, core.Options{
			Algorithm: core.AgreeCouples, Armstrong: core.ArmstrongNone, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
