package depminer

// Benchmarks regenerating the paper's evaluation artefacts (one bench per
// table and figure; see DESIGN.md §4 and EXPERIMENTS.md for the mapping),
// plus ablations of the design decisions DESIGN.md §5 calls out.
//
// Default sizes are scaled to a laptop: the paper's grid reaches 100,000
// tuples × 60 attributes on a 350 MHz machine and takes hours; run
// cmd/benchmark -full for that. Times here are not comparable to the
// paper's absolute numbers — shapes are (who wins, how the gap moves with
// |R| and |r|, how small Armstrong relations are).

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/agree"
	"repro/internal/armstrong"
	"repro/internal/attrset"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hypergraph"
	"repro/internal/incremental"
	"repro/internal/ind"
	"repro/internal/maxsets"
	"repro/internal/partition"
	"repro/internal/pstore"
	"repro/internal/relation"
	"repro/internal/tane"
)

// dataset caches generated benchmark relations across benchmarks.
var datasets = map[datagen.Spec]*relation.Relation{}

func dataset(b *testing.B, attrs, rows int, c float64) *relation.Relation {
	b.Helper()
	spec := datagen.Spec{Attrs: attrs, Rows: rows, Correlation: c, Seed: 1}
	if r, ok := datasets[spec]; ok {
		return r
	}
	r, err := datagen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	datasets[spec] = r
	return r
}

// benchGrid runs the three algorithms over a scaled grid for one
// correlation level — the computation behind Tables 3, 4 and 5.
func benchGrid(b *testing.B, c float64) {
	for _, rows := range []int{1000, 5000} {
		for _, attrs := range []int{10, 20} {
			r := dataset(b, attrs, rows, c)
			b.Run(fmt.Sprintf("r=%d/R=%d/DepMiner", rows, attrs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Discover(context.Background(), r, core.Options{
						Algorithm: core.AgreeCouples, Armstrong: core.ArmstrongNone,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("r=%d/R=%d/DepMiner2", rows, attrs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Discover(context.Background(), r, core.Options{
						Algorithm: core.AgreeIdentifiers, Armstrong: core.ArmstrongNone,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("r=%d/R=%d/TANE", rows, attrs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := tane.Run(context.Background(), r, tane.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (execution times, data without
// constraints, c = 0) at laptop scale.
func BenchmarkTable3(b *testing.B) { benchGrid(b, 0) }

// BenchmarkTable4 regenerates Table 4 (correlated data, c = 30%).
func BenchmarkTable4(b *testing.B) { benchGrid(b, 0.3) }

// BenchmarkTable5 regenerates Table 5 (correlated data, c = 50%).
func BenchmarkTable5(b *testing.B) { benchGrid(b, 0.5) }

// benchFigureTime runs the |r| sweep at the two |R| extremes — the curves
// of Figures 2, 4 and 6.
func benchFigureTime(b *testing.B, c float64) {
	for _, attrs := range []int{10, 25} {
		for _, rows := range []int{500, 1000, 2000, 5000} {
			r := dataset(b, attrs, rows, c)
			for _, algo := range []core.AgreeAlgorithm{core.AgreeCouples, core.AgreeIdentifiers} {
				algo := algo
				b.Run(fmt.Sprintf("R=%d/r=%d/%s", attrs, rows, algo), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := core.Discover(context.Background(), r, core.Options{
							Algorithm: algo, Armstrong: core.ArmstrongNone,
						}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			b.Run(fmt.Sprintf("R=%d/r=%d/TANE", attrs, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := tane.Run(context.Background(), r, tane.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (time vs |r| curves, c = 0).
func BenchmarkFigure2(b *testing.B) { benchFigureTime(b, 0) }

// BenchmarkFigure4 regenerates Figure 4 (time vs |r| curves, c = 30%).
func BenchmarkFigure4(b *testing.B) { benchFigureTime(b, 0.3) }

// BenchmarkFigure6 regenerates Figure 6 (time vs |r| curves, c = 50%).
func BenchmarkFigure6(b *testing.B) { benchFigureTime(b, 0.5) }

// benchFigureSize measures Armstrong relation sizes over the |r| sweep —
// Figures 3, 5 and 7. The size is reported as the custom metric
// "armstrong-tuples" next to the build time.
func benchFigureSize(b *testing.B, c float64) {
	for _, attrs := range []int{10, 25} {
		for _, rows := range []int{500, 1000, 2000, 5000} {
			r := dataset(b, attrs, rows, c)
			b.Run(fmt.Sprintf("R=%d/r=%d", attrs, rows), func(b *testing.B) {
				b.ReportAllocs()
				size := 0
				for i := 0; i < b.N; i++ {
					res, err := core.Discover(context.Background(), r, core.Options{
						Algorithm: core.AgreeIdentifiers,
						Armstrong: core.ArmstrongRealWorldOrSynthetic,
					})
					if err != nil {
						b.Fatal(err)
					}
					size = res.Armstrong.Rows()
				}
				b.ReportMetric(float64(size), "armstrong-tuples")
				b.ReportMetric(float64(rows)/float64(size), "compression-x")
			})
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3 (Armstrong sizes vs |r|, c = 0).
func BenchmarkFigure3(b *testing.B) { benchFigureSize(b, 0) }

// BenchmarkFigure5 regenerates Figure 5 (Armstrong sizes, c = 30%).
func BenchmarkFigure5(b *testing.B) { benchFigureSize(b, 0.3) }

// BenchmarkFigure7 regenerates Figure 7 (Armstrong sizes, c = 50%).
func BenchmarkFigure7(b *testing.B) { benchFigureSize(b, 0.5) }

// BenchmarkAblation_AgreeSets isolates step 1: the naive O(n·p²) scan vs
// Algorithm 2 (MC couples) vs Algorithm 3 (identifier intersection) —
// the paper's core claim that stripped partitions cut the couple count.
func BenchmarkAblation_AgreeSets(b *testing.B) {
	r := dataset(b, 15, 2000, 0.3)
	db := partition.NewDatabase(r)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := agree.Naive(context.Background(), r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("couples", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := agree.Couples(context.Background(), db, agree.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("identifiers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan, err := agree.NewPlan(context.Background(), db, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.Run(context.Background(), agree.VariantIdentifiers, agree.Options{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_SetAsMapKey isolates the bit-vector design: agree-set
// deduplication keyed by the comparable Set value vs. a string encoding —
// the "set operations in constant time" implementation note of §5.
func BenchmarkAblation_SetAsMapKey(b *testing.B) {
	r := dataset(b, 20, 2000, 0.3)
	res, err := agree.Couples(context.Background(), partition.NewDatabase(r), agree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sets := res.Sets
	b.Run("set-key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[attrset.Set]struct{}, len(sets))
			for _, s := range sets {
				m[s] = struct{}{}
			}
			if len(m) != len(sets) {
				b.Fatal("dedup mismatch")
			}
		}
	})
	b.Run("string-key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[string]struct{}, len(sets))
			for _, s := range sets {
				m[s.String()] = struct{}{}
			}
			if len(m) != len(sets) {
				b.Fatal("dedup mismatch")
			}
		}
	})
}

// BenchmarkAblation_Transversal isolates steps 3–4: the levelwise
// minimal-transversal search on the cmax hypergraphs of a benchmark
// relation.
func BenchmarkAblation_Transversal(b *testing.B) {
	b.ReportAllocs()
	r := dataset(b, 20, 2000, 0.3)
	res, err := agree.Couples(context.Background(), partition.NewDatabase(r), agree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ms := maxsets.Compute(res.Sets, r.Arity())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := 0; a < r.Arity(); a++ {
			h := hypergraph.Simplify(ms.CMax[a])
			if _, err := h.MinimalTransversals(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkArmstrongConstruction isolates step 5: real-world vs synthetic
// construction from precomputed maximal sets.
func BenchmarkArmstrongConstruction(b *testing.B) {
	r := dataset(b, 20, 5000, 0.3)
	res, err := core.Discover(context.Background(), r, core.Options{Armstrong: core.ArmstrongNone})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("real-world", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := armstrong.RealWorld(r, res.MaxSets); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("synthetic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := armstrong.Synthetic(res.MaxSets, r.Names()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtension_FastFDs compares the levelwise transversal search
// against the depth-first difference-set search on the same workload —
// the extension's reason to exist is the wide-candidate-level regime.
func BenchmarkExtension_FastFDs(b *testing.B) {
	r := dataset(b, 20, 2000, 0.3)
	b.Run("levelwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Discover(context.Background(), r, core.Options{
				Algorithm: core.AgreeIdentifiers, Armstrong: core.ArmstrongNone,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fastfds", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Discover(context.Background(), r, Options{Algorithm: FastFDs, Armstrong: ArmstrongNone}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtension_Keys measures candidate-key discovery.
func BenchmarkExtension_Keys(b *testing.B) {
	b.ReportAllocs()
	r := dataset(b, 15, 2000, 0.3)
	for i := 0; i < b.N; i++ {
		if _, err := tane.Keys(context.Background(), r, tane.KeysOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_IncrementalInsert measures the per-insert cost of
// the incremental miner on a growing relation.
func BenchmarkExtension_IncrementalInsert(b *testing.B) {
	b.ReportAllocs()
	r := dataset(b, 10, 2000, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := incremental.New(r.Names())
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < r.Rows(); t++ {
			if err := m.Insert(r.Row(t)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(r.Rows()), "inserts/op")
}

// BenchmarkExtension_INDs measures inclusion-dependency discovery across
// two fragments of a benchmark relation.
func BenchmarkExtension_INDs(b *testing.B) {
	b.ReportAllocs()
	r := dataset(b, 10, 2000, 0.3)
	left := r.Project(attrset.Universe(5)).Deduplicate()
	right := r.Project(attrset.Universe(10).Diff(attrset.Universe(3))).Deduplicate()
	rels := []*relation.Relation{left, right}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ind.Discover(context.Background(), rels, ind.Options{MaxArity: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTANEApproximate measures the approximate-dependency mode
// against exact TANE on the same data.
func BenchmarkTANEApproximate(b *testing.B) {
	b.ReportAllocs()
	r := dataset(b, 12, 2000, 0.5)
	for _, eps := range []float64{0, 0.01, 0.05} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tane.Run(context.Background(), r, tane.Options{Epsilon: eps}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTANEParallel measures TANE's parallel level evaluation at
// increasing worker counts on the widest default workload. Workers=1 is
// the sequential reference path; speedups are relative to it and bounded
// by GOMAXPROCS — on a single-core testbed all counts degenerate to ~1×.
func BenchmarkTANEParallel(b *testing.B) {
	r := dataset(b, 20, 5000, 0.3)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tane.Run(context.Background(), r, tane.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTANEMemBound measures the memory-bounded partition store:
// cap=0 is the unbounded reference, the mid cap forces steady eviction
// with some recomputation, and the 1-byte cap is the worst case — every
// partition evicted on arrival and recomputed from the roots on each
// use. The recompute count and the settled peak are reported as custom
// metrics next to the time cost of trading memory for recomputation.
func BenchmarkTANEMemBound(b *testing.B) {
	r := dataset(b, 15, 2000, 0.5)
	for _, cap := range []int64{0, 64 << 10, 1} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			b.ReportAllocs()
			var stats pstore.Stats
			for i := 0; i < b.N; i++ {
				res, err := tane.Run(context.Background(), r, tane.Options{MaxPartitionBytes: cap})
				if err != nil {
					b.Fatal(err)
				}
				stats = res.Stats
			}
			if cap > 0 && stats.PeakBytes > cap {
				b.Fatalf("PeakBytes %d over cap %d", stats.PeakBytes, cap)
			}
			b.ReportMetric(float64(stats.Recomputes), "recomputes/op")
			b.ReportMetric(float64(stats.PeakBytes), "peak-bytes")
		})
	}
}

// BenchmarkDiscoverParallel measures the worker-pool execution layer:
// the full pipeline (agree-set sweep + per-attribute transversal fan-out)
// at increasing worker counts on one workload. Workers=1 is the
// sequential reference path; speedups are relative to it and bounded by
// GOMAXPROCS — on a single-core testbed all counts degenerate to ~1×.
func BenchmarkDiscoverParallel(b *testing.B) {
	r := dataset(b, 20, 5000, 0.3)
	for _, algo := range []core.AgreeAlgorithm{core.AgreeCouples, core.AgreeIdentifiers} {
		algo := algo
		for _, workers := range []int{1, 2, 4, 8} {
			workers := workers
			b.Run(fmt.Sprintf("%s/workers=%d", algo, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Discover(context.Background(), r, core.Options{
						Algorithm: algo, Armstrong: core.ArmstrongNone, Workers: workers,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
