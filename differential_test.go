package depminer

// Cross-algorithm differential harness: five independent miners — the two
// Dep-Miner variants, the pipeline fed the naive pairwise scan's ag(r),
// FastFDs and TANE — must
// produce the identical canonical cover on every input, and the parallel
// execution layer must produce a byte-identical Result for every worker
// count. Each miner takes a different route to dep(r) (stripped-partition
// couples, identifier intersection, direct tuple pairs, difference-set DFS,
// levelwise lattice search), so agreement across seeded random relations is
// strong evidence of correctness without a ground truth.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/core"
)

// miners enumerates every FD-discovery entry point of the public API, plus
// the naive oracle, as a name → canonical-cover function.
var miners = []struct {
	name string
	run  func(context.Context, *Relation) (Cover, error)
}{
	{"depminer/couples", func(ctx context.Context, r *Relation) (Cover, error) {
		res, err := Discover(ctx, r, Options{Algorithm: DepMiner, Armstrong: ArmstrongNone})
		if err != nil {
			return nil, err
		}
		return res.FDs, nil
	}},
	{"depminer/identifiers", func(ctx context.Context, r *Relation) (Cover, error) {
		res, err := Discover(ctx, r, Options{Algorithm: DepMiner2, Armstrong: ArmstrongNone})
		if err != nil {
			return nil, err
		}
		return res.FDs, nil
	}},
	{"naive", func(ctx context.Context, r *Relation) (Cover, error) {
		naive, err := agree.Naive(ctx, r)
		if err != nil {
			return nil, err
		}
		res, err := core.Run(ctx, core.Input{Source: r, Agree: naive}, Options{Armstrong: ArmstrongNone})
		if err != nil {
			return nil, err
		}
		return res.FDs, nil
	}},
	{"fastfds", func(ctx context.Context, r *Relation) (Cover, error) {
		res, err := Discover(ctx, r, Options{Algorithm: FastFDs})
		if err != nil {
			return nil, err
		}
		return res.FDs, nil
	}},
	{"tane", func(ctx context.Context, r *Relation) (Cover, error) {
		res, err := DiscoverTANE(ctx, r, TANEOptions{})
		if err != nil {
			return nil, err
		}
		return res.FDs, nil
	}},
}

// assertMinersAgree runs every miner on r and fails unless all covers are
// identical (same FDs, same canonical order) to the first miner's.
func assertMinersAgree(t *testing.T, r *Relation, label string) {
	t.Helper()
	ctx := context.Background()
	var want Cover
	for i, m := range miners {
		got, err := m.run(ctx, r)
		if err != nil {
			t.Fatalf("%s: %s failed: %v", label, m.name, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %s found %d FDs, %s found %d:\n%s\nvs\n%s",
				label, m.name, len(got), miners[0].name, len(want), got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: %s FD %d = %s, %s has %s",
					label, m.name, j, got[j], miners[0].name, want[j])
			}
		}
	}
	// The agreed cover must actually hold in the relation.
	if ok, bad := Verify(r, want); !ok {
		t.Fatalf("%s: agreed cover contains %s, which does not hold", label, bad)
	}
}

// differentialRelation builds the i-th seeded random relation of the
// harness: small schemas and domains so value collisions (and hence
// non-trivial FDs) are common, with rows occasionally 0 or 1 to pin the
// degenerate inputs where every column is constant.
func differentialRelation(t testing.TB, rng *rand.Rand) *Relation {
	t.Helper()
	attrs := 2 + rng.Intn(5)
	rows := rng.Intn(40)
	rowsData := make([][]string, rows)
	for i := range rowsData {
		rowsData[i] = make([]string, attrs)
		for a := 0; a < attrs; a++ {
			rowsData[i][a] = "v" + strconv.Itoa(rng.Intn(1+rng.Intn(4)))
		}
	}
	names := make([]string, attrs)
	for a := range names {
		names[a] = "c" + strconv.Itoa(a)
	}
	r, err := NewRelation(names, rowsData)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDifferentialRandomRelations cross-checks all five miners on 50
// seeded random relations.
func TestDifferentialRandomRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for iter := 0; iter < 50; iter++ {
		r := differentialRelation(t, rng)
		assertMinersAgree(t, r, fmt.Sprintf("iter %d (%d×%d)", iter, r.Rows(), r.Arity()))
	}
}

// TestDifferentialPaperExample cross-checks the miners on the paper's
// running example, whose cover is known by hand.
func TestDifferentialPaperExample(t *testing.T) {
	assertMinersAgree(t, PaperExample(), "paper example")
}

// TestDifferentialGoldenFixture cross-checks the miners on the employees
// fixture, whose cover is pinned in testdata/employees.fds.
func TestDifferentialGoldenFixture(t *testing.T) {
	r, err := LoadCSVFile("testdata/employees.csv", true)
	if err != nil {
		t.Fatal(err)
	}
	assertMinersAgree(t, r, "employees fixture")
}

// lhsFamilies derives lhs(dep(r),A) from the cover, as Algorithm 5
// computes it: the cover's LHSs for A plus the trivial {A}, which is a
// minimal transversal of cmax(dep(r),A) unless A is constant (∅ → A).
func lhsFamilies(c Cover, arity int) []AttrSetFamily {
	out := c.ByRHS(arity)
	for a, xs := range out {
		if len(xs) > 0 && xs[0].IsEmpty() {
			continue
		}
		i, _ := slices.BinarySearchFunc(xs, attrset.Single(a), AttrSet.Compare)
		out[a] = slices.Insert(xs, i, attrset.Single(a))
	}
	return out
}

// discoverFingerprint renders every deterministic field of a Result — the
// cover, all intermediate set families (the LHS families derived from
// the cover), the counters, and the Armstrong relation when built — so
// two runs can be compared byte-for-byte.
func discoverFingerprint(res *Result, arity int) string {
	arm := "<nil>"
	if res.Armstrong != nil {
		arm = res.Armstrong.String()
	}
	return fmt.Sprintf("fds=%v ag=%v max=%v lhs=%v couples=%d synthetic=%t armstrong=%s",
		res.FDs, res.AgreeSets, res.MaxSets, lhsFamilies(res.FDs, arity),
		res.Couples, res.ArmstrongSynthetic, arm)
}

// assertCanonicalOrder checks the order steps 2–4 construct rather than
// sort: the cover in FD.Compare order, and every LHS family and
// MAX(dep(r)) strictly increasing in AttrSet.Compare order.
func assertCanonicalOrder(t *testing.T, label string, res *Result, arity int) {
	t.Helper()
	if !slices.IsSortedFunc(res.FDs, FD.Compare) {
		t.Fatalf("%s: FDs not in canonical order: %v", label, res.FDs)
	}
	strict := func(f AttrSetFamily) bool {
		for i := 1; i < len(f); i++ {
			if f[i-1].Compare(f[i]) >= 0 {
				return false
			}
		}
		return true
	}
	for a, f := range lhsFamilies(res.FDs, arity) {
		if !strict(f) {
			t.Fatalf("%s: LHS[%d] not canonical: %v", label, a, f.Strings())
		}
	}
	if !strict(res.MaxSets) {
		t.Fatalf("%s: MaxSets not canonical: %v", label, res.MaxSets.Strings())
	}
}

// TestDifferentialWorkerCounts pins the tentpole guarantee at the public
// API: Discover with Workers=N yields a byte-identical Result to the
// sequential reference (Workers=1) on the paper example, the golden
// fixture, and 50 seeded random relations, for every miner — each result
// in canonical order without a final sort.
func TestDifferentialWorkerCounts(t *testing.T) {
	employees, err := LoadCSVFile("testdata/employees.csv", true)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		label string
		r     *Relation
	}{
		{"paper example", PaperExample()},
		{"employees fixture", employees},
	}
	rng := rand.New(rand.NewSource(31337))
	for i := 0; i < 50; i++ {
		inputs = append(inputs, struct {
			label string
			r     *Relation
		}{fmt.Sprintf("random %d", i), differentialRelation(t, rng)})
	}

	ctx := context.Background()
	for _, in := range inputs {
		for _, algo := range []Algorithm{DepMiner, DepMiner2, FastFDs} {
			seq, err := Discover(ctx, in.r, Options{Algorithm: algo, Workers: 1})
			if err != nil {
				t.Fatalf("%s %v workers=1: %v", in.label, algo, err)
			}
			assertCanonicalOrder(t, fmt.Sprintf("%s %v workers=1", in.label, algo), seq, in.r.Arity())
			want := discoverFingerprint(seq, in.r.Arity())
			for _, workers := range []int{0, 2, 4, 8, 9} {
				par, err := Discover(ctx, in.r, Options{Algorithm: algo, Workers: workers})
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", in.label, algo, workers, err)
				}
				assertCanonicalOrder(t, fmt.Sprintf("%s %v workers=%d", in.label, algo, workers), par, in.r.Arity())
				if got := discoverFingerprint(par, in.r.Arity()); got != want {
					t.Fatalf("%s %v workers=%d: Result differs from sequential:\n got %s\nwant %s",
						in.label, algo, workers, got, want)
				}
			}
		}
	}
}

// taneFingerprint renders the deterministic fields of a TANE Result: the
// cover and the lattice counters. The partition-store Stats are
// deliberately excluded — hit/miss/recompute counts depend on eviction
// timing and hence worker scheduling; the cover never does.
func taneFingerprint(res *TANEResult) string {
	return fmt.Sprintf("fds=%v nodes=%d levels=%d partial=%t",
		res.FDs, res.LatticeNodes, res.Levels, res.Partial)
}

// TestDifferentialTANEWorkerCounts pins this layer's tentpole guarantee:
// DiscoverTANE yields a byte-identical cover for every Workers value and
// every partition-store cap — including a 1-byte cap under which every
// product is evicted on arrival and recomputed on demand — in both exact
// and approximate mode. The sweep also checks the cap is honoured
// (PeakBytes ≤ cap) and that the tight caps really exercised the
// evict/recompute machinery rather than vacuously passing.
func TestDifferentialTANEWorkerCounts(t *testing.T) {
	employees, err := LoadCSVFile("testdata/employees.csv", true)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		label string
		r     *Relation
	}{
		{"paper example", PaperExample()},
		{"employees fixture", employees},
	}
	rng := rand.New(rand.NewSource(271828))
	for i := 0; i < 30; i++ {
		inputs = append(inputs, struct {
			label string
			r     *Relation
		}{fmt.Sprintf("random %d", i), differentialRelation(t, rng)})
	}

	ctx := context.Background()
	var evictions, recomputes int64
	for _, in := range inputs {
		for _, epsilon := range []float64{0, 0.1} {
			seq, err := DiscoverTANE(ctx, in.r, TANEOptions{Epsilon: epsilon, Workers: 1})
			if err != nil {
				t.Fatalf("%s ε=%v workers=1: %v", in.label, epsilon, err)
			}
			want := taneFingerprint(seq)
			for _, workers := range []int{0, 2, 4, 8} {
				for _, cap := range []int64{0, 1, 4096} {
					res, err := DiscoverTANE(ctx, in.r, TANEOptions{
						Epsilon: epsilon, Workers: workers, MaxPartitionBytes: cap,
					})
					if err != nil {
						t.Fatalf("%s ε=%v workers=%d cap=%d: %v", in.label, epsilon, workers, cap, err)
					}
					if got := taneFingerprint(res); got != want {
						t.Fatalf("%s ε=%v workers=%d cap=%d: Result differs from sequential:\n got %s\nwant %s",
							in.label, epsilon, workers, cap, got, want)
					}
					if cap > 0 && res.Stats.PeakBytes > cap {
						t.Fatalf("%s ε=%v workers=%d cap=%d: PeakBytes %d exceeds cap",
							in.label, epsilon, workers, cap, res.Stats.PeakBytes)
					}
					evictions += res.Stats.Evictions
					recomputes += res.Stats.Recomputes
				}
			}
		}
	}
	if evictions == 0 || recomputes == 0 {
		t.Errorf("sweep exercised %d evictions and %d recomputes, want both non-zero", evictions, recomputes)
	}
}

// TestDifferentialKeysWorkerCounts extends the same guarantee to the
// candidate-key search, which shares the worker pool and partition store.
func TestDifferentialKeysWorkerCounts(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(161803))
	inputs := []*Relation{PaperExample()}
	for i := 0; i < 20; i++ {
		inputs = append(inputs, differentialRelation(t, rng))
	}
	for i, r := range inputs {
		seq, err := DiscoverKeys(ctx, r, KeysOptions{Workers: 1})
		if err != nil {
			t.Fatalf("input %d workers=1: %v", i, err)
		}
		want := fmt.Sprintf("keys=%v nodes=%d", seq.Keys, seq.LatticeNodes)
		for _, workers := range []int{0, 2, 8} {
			for _, cap := range []int64{0, 1} {
				res, err := DiscoverKeys(ctx, r, KeysOptions{Workers: workers, MaxPartitionBytes: cap})
				if err != nil {
					t.Fatalf("input %d workers=%d cap=%d: %v", i, workers, cap, err)
				}
				if got := fmt.Sprintf("keys=%v nodes=%d", res.Keys, res.LatticeNodes); got != want {
					t.Fatalf("input %d workers=%d cap=%d:\n got %s\nwant %s", i, workers, cap, got, want)
				}
			}
		}
	}
}
