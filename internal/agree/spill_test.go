package agree

// Out-of-core tests: spilling is a memory/I-O trade that must never
// change results. The root package's FuzzPlan checks families and spill
// counters across thresholds and worker counts; here the fault sweep
// arms every extsort injection point and asserts either a clean error
// or a clean governed partial — never a silently truncated family.

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

// TestSpillCountersDeterministic: at one worker the plan fixes the
// order couples reach the accumulator, and with it every spill boundary,
// so two spilling runs report identical counters, for both variants and
// two thresholds, and the counters stay pinned at 10 runs of 30 sets.
// The relation is TestSpillGovernedPartial's shape with enough rows for
// its 79,800 couples to cross several absorb batches.
func TestSpillCountersDeterministic(t *testing.T) {
	r := randomRelation(t, rand.New(rand.NewSource(17)), 5, 400, 2)
	db := partition.NewDatabase(r)
	for _, algo := range []struct {
		name string
		run  func(Options) (*Result, error)
	}{
		{"couples", func(o Options) (*Result, error) { return Couples(context.Background(), db, o) }},
		{"identifiers", func(o Options) (*Result, error) { return identifiers(context.Background(), db, o) }},
	} {
		for _, maxBytes := range []int64{1, 4 * extsort.SetBytes} {
			var stats [2]extsort.Stats
			for i := range stats {
				res, err := algo.run(Options{Workers: 1, MaxAgreeBytes: maxBytes, SpillDir: t.TempDir()})
				if err != nil {
					t.Fatalf("%s max=%d: %v", algo.name, maxBytes, err)
				}
				stats[i] = res.Spill
			}
			pinned := extsort.Stats{RunsSpilled: 10, SpilledSets: 300, SpilledBytes: 9750, MergedRuns: 10, ReadBlocks: 10}
			if stats[0] != stats[1] || stats[0] != pinned {
				t.Fatalf("%s max=%d: spill counters %+v then %+v, pinned %+v", algo.name, maxBytes, stats[0], stats[1], pinned)
			}
			t.Logf("%s max=%d: %+v", algo.name, maxBytes, stats[0])
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
func makeRunLocals(workers, perRun int) []*workerState[attrset.Set] {
	rng := rand.New(rand.NewSource(23))
	locals := make([]*workerState[attrset.Set], workers)
	for w := range locals {
		locals[w] = &workerState[attrset.Set]{}
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
