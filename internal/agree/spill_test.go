package agree

// Out-of-core differential tests: spilling is a memory/I-O trade that
// must never change results. The sweep crosses spill thresholds (never /
// every-absorb / effectively-infinite) with worker counts and both
// stripped-partition algorithms, asserting families byte-identical to
// the in-memory reference; the fault sweep arms every extsort injection
// point and asserts either a clean error or a clean governed partial —
// never a silently truncated family.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/attrset"
	"repro/internal/extsort"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/partition"
)

func TestSpillDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 10; iter++ {
		r := randomRelation(t, rng, 2+rng.Intn(5), 20+rng.Intn(80), 1+rng.Intn(4))
		db := partition.NewDatabase(r)
		for _, algo := range []struct {
			name string
			run  func(Options) (*Result, error)
		}{
			{"couples", func(o Options) (*Result, error) { return Couples(context.Background(), db, o) }},
			{"identifiers", func(o Options) (*Result, error) { return identifiers(context.Background(), db, o) }},
		} {
			ref, err := algo.run(Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				for _, maxBytes := range []int64{0, 1, 4 * extsort.SetBytes, 1 << 40} {
					opts := Options{Workers: workers, MaxAgreeBytes: maxBytes, SpillDir: t.TempDir()}
					got, err := algo.run(opts)
					if err != nil {
						t.Fatalf("%s workers=%d max=%d: %v", algo.name, workers, maxBytes, err)
					}
					if !slices.Equal(got.Sets, ref.Sets) {
						t.Fatalf("%s workers=%d max=%d: family differs from in-memory reference",
							algo.name, workers, maxBytes)
					}
					// ∅ can enter the family via the uncovered-couples
					// completion without any worker absorbing it, so only
					// non-empty sets prove accumulator traffic.
					absorbed := 0
					for _, s := range ref.Sets {
						if !s.IsEmpty() {
							absorbed++
						}
					}
					switch {
					case maxBytes == 0 || maxBytes == 1<<40:
						if got.Spill.RunsSpilled != 0 {
							t.Fatalf("%s workers=%d max=%d: unexpected spills: %+v",
								algo.name, workers, maxBytes, got.Spill)
						}
					case maxBytes == 1 && absorbed > 0:
						// A 1-byte threshold clamps to one record per
						// worker, so every non-empty absorb hits disk.
						if got.Spill.RunsSpilled == 0 {
							t.Fatalf("%s workers=%d max=%d: expected spills, got none (family %d)",
								algo.name, workers, maxBytes, len(ref.Sets))
						}
						if got.Spill.SpilledBytes == 0 || got.Spill.MergedRuns == 0 {
							t.Fatalf("%s workers=%d max=%d: incomplete spill counters: %+v",
								algo.name, workers, maxBytes, got.Spill)
						}
					}
				}
			}
		}
	}
}

// TestSpillFaultInjection arms each extsort injection point under an
// every-absorb threshold: an injected failure must surface as an error
// with no result — not as a truncated family.
func TestSpillFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := randomRelation(t, rng, 4, 80, 2)
	db := partition.NewDatabase(r)
	injected := errors.New("injected spill fault")

	for _, point := range []string{
		faultinject.ExtsortFlush, faultinject.ExtsortRead, faultinject.ExtsortMerge,
	} {
		for _, workers := range []int{1, 4} {
			faultinject.Set(point, faultinject.FailWith(injected))
			opts := Options{Workers: workers, MaxAgreeBytes: 1, SpillDir: t.TempDir()}
			res, err := identifiers(context.Background(), db, opts)
			faultinject.Reset()
			if !errors.Is(err, injected) {
				t.Fatalf("%s workers=%d: err = %v, want injected", point, workers, err)
			}
			if res != nil {
				t.Fatalf("%s workers=%d: got a result alongside a non-governed error", point, workers)
			}
		}
	}
}

// TestSpillGovernedPartial exhausts the budget via the extsort phase's
// own byte charges: the run must degrade into a governed partial whose
// family is a valid (possibly empty) subset of the full one — clean
// truncation through the guard contract, not silent truncation.
func TestSpillGovernedPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := randomRelation(t, rng, 5, 120, 2)
	db := partition.NewDatabase(r)
	ref, err := identifiers(context.Background(), db, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Enough budget for the couple charge, not for the spill volume.
	full, err := identifiers(context.Background(), db, Options{Workers: 1, MaxAgreeBytes: 1, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	limit := full.Couples + int(full.Spill.SpilledBytes)/2 + 1
	b := guard.New(guard.Limits{Units: int64(limit)})
	res, err := identifiers(context.Background(), db, Options{
		Workers: 1, MaxAgreeBytes: 1, SpillDir: t.TempDir(), Budget: b,
	})
	if !guard.Governed(err) {
		t.Fatalf("err = %v, want governed budget overrun", err)
	}
	if res == nil {
		t.Fatalf("governed overrun returned no partial result")
	}
	for _, s := range res.Sets {
		if !slices.ContainsFunc(ref.Sets, func(x attrset.Set) bool { return x == s }) {
			t.Fatalf("partial family contains set %v absent from the full family", s)
		}
	}
}

// TestMergeAccumsAllocs guards the in-memory union: folding any number
// of per-worker lists must cost a constant number of allocations: the
// reserved list and index, and the exact-size copy.
func TestMergeAccumsAllocs(t *testing.T) {
	locals := makeRunLocals(16, 2000)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := mergeAccums(locals, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("mergeAccums allocations = %v, want <= 8", allocs)
	}
}

// makeRunLocals builds worker states whose accumulators hold distinct
// lists with heavy cross-worker overlap.
func makeRunLocals(workers, perRun int) []*workerState {
	rng := rand.New(rand.NewSource(23))
	locals := make([]*workerState, workers)
	for w := range locals {
		locals[w] = &workerState{}
		for i := 0; i < perRun; i++ {
			var s attrset.Set
			s[0] = uint64(rng.Intn(perRun))
			s[1] = uint64(rng.Intn(4))
			locals[w].accum.insert(s)
		}
	}
	return locals
}

func BenchmarkMergeAccums(b *testing.B) {
	for _, workers := range []int{4, 16} {
		locals := makeRunLocals(workers, 20000)
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mergeAccums(locals, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
