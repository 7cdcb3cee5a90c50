package depminer

// Out-of-core discovery: the agree-set phase spills sorted runs to disk
// once resident bytes cross Options.MaxAgreeBytes, so discovery completes
// on agree-set volumes far larger than the memory the phase is allowed —
// the README's GOMEMLIMIT recipe. These tests pin the two contracts the
// feature rests on: the cover (and ag(r) itself) is byte-identical to the
// all-in-RAM run for every threshold, and the spilled volume actually
// exceeds the resident cap by the advertised margin.

import (
	"context"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/extsort"
)

// oocSpec is the default out-of-core workload: big enough that a 4 KiB
// resident cap spills hundreds of runs, small enough for CI. The CI
// out-of-core job scales it up via DEPMINER_OOC_ROWS to a dataset whose
// agree-set volume exceeds GOMEMLIMIT many times over.
func oocSpec(t testing.TB) datagen.Spec {
	rows := 2000
	if s := os.Getenv("DEPMINER_OOC_ROWS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad DEPMINER_OOC_ROWS %q", s)
		}
		rows = n
	}
	return datagen.Spec{Attrs: 15, Rows: rows, Correlation: 0.3, Seed: 3}
}

// TestOutOfCoreDiscovery is the acceptance run: under a soft memory limit
// and a resident agree-set cap, discovery must spill at least 10× the cap
// to disk and still produce ag(r) and a cover byte-identical to the
// unconstrained in-memory run.
func TestOutOfCoreDiscovery(t *testing.T) {
	spec := oocSpec(t)
	r, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Discover(context.Background(), r, Options{Workers: 1, Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}

	// GOMEMLIMIT is a soft limit: it cannot make an over-RAM run fail,
	// only thrash. The honest proof of "out of core" is the counter
	// contract below — resident agree bytes capped at threshold, spilled
	// volume ≥ 10× that — run here under a limit to keep the recipe real.
	old := debug.SetMemoryLimit(256 << 20)
	defer debug.SetMemoryLimit(old)

	// The out-of-core configuration bounds the agree-set bytes per pool
	// (MaxAgreeBytes). Each batch of couples re-contributes its distinct
	// sets, so the spilled volume scales with the couple count while
	// residency stays capped.
	const threshold = 1 << 10
	res, err := Discover(context.Background(), r, Options{
		Workers:       4,
		Armstrong:     ArmstrongNone,
		MaxAgreeBytes: threshold,
		SpillDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.FDs, ref.FDs) {
		t.Fatalf("spilled cover differs from in-memory reference (%d vs %d FDs)",
			len(res.FDs), len(ref.FDs))
	}
	if !slices.Equal(res.AgreeSets, ref.AgreeSets) {
		t.Fatalf("spilled ag(r) differs from in-memory reference (%d vs %d sets)",
			len(res.AgreeSets), len(ref.AgreeSets))
	}
	sp := res.Stats.Spill
	if sp.SpilledBytes < 10*threshold {
		t.Fatalf("spilled %d bytes, want ≥ 10× the %d-byte resident cap — workload too small to prove out-of-core",
			sp.SpilledBytes, threshold)
	}
	if sp.RunsSpilled == 0 || sp.MergedRuns == 0 || sp.ReadBlocks == 0 {
		t.Fatalf("incomplete spill counters: %+v", sp)
	}
	t.Logf("ooc: |r|=%d |ag(r)|=%d spilled=%d runs / %d bytes (%.0f× the %d-byte cap)",
		spec.Rows, len(ref.AgreeSets), sp.RunsSpilled, sp.SpilledBytes,
		float64(sp.SpilledBytes)/threshold, threshold)
}

// TestOutOfCoreFromSnapshot runs the fully out-of-core path end to end:
// the relation lives in a durable DMSNAP1 snapshot, columns are streamed
// one at a time into stripped partitions, and the agree-set phase spills —
// at no point is the relation or the agree-set volume resident at once.
func TestOutOfCoreFromSnapshot(t *testing.T) {
	spec := oocSpec(t)
	r, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Discover(context.Background(), r, Options{Workers: 1, Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}

	sr, err := OpenSnapshot(writeSnapshot(t, r))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	res, err := Discover(context.Background(), sr, Options{
		Workers:       4,
		MaxAgreeBytes: extsort.SetBytes, // one set per worker: maximal spilling
		SpillDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if names := sr.Names(); !slices.Equal(names, r.Names()) {
		t.Fatalf("snapshot names = %v, want %v", names, r.Names())
	}
	if !slices.Equal(res.FDs, ref.FDs) {
		t.Fatalf("snapshot-path cover differs from in-memory reference (%d vs %d FDs)",
			len(res.FDs), len(ref.FDs))
	}
	if res.Stats.Spill.RunsSpilled == 0 {
		t.Fatal("snapshot path did not spill under a one-set cap")
	}
}

// BenchmarkDiscoverOOC measures the out-of-core spill path against the
// in-memory one. The same benchmark name measures both sides so
// scripts/benchcmp can
// compare them: unset (or 0) DEPMINER_OOC_SPILL_BYTES is the in-memory
// baseline, a positive value is the resident cap of the spilled side.
func BenchmarkDiscoverOOC(b *testing.B) {
	var spill int64
	if s := os.Getenv("DEPMINER_OOC_SPILL_BYTES"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < 0 {
			b.Fatalf("bad DEPMINER_OOC_SPILL_BYTES %q", s)
		}
		spill = n
	}
	r := dataset(b, 15, 5000, 0.3)
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Discover(context.Background(), r, core.Options{
			Algorithm:     core.AgreeCouples,
			Armstrong:     core.ArmstrongNone,
			MaxAgreeBytes: spill,
			SpillDir:      dir,
		})
		if err != nil {
			b.Fatal(err)
		}
		if spill > 0 && res.Stats.Spill.RunsSpilled == 0 {
			b.Fatal("spill cap set but nothing spilled")
		}
	}
}
