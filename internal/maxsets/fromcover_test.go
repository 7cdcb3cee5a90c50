package maxsets

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/fd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// FromCover recovers maximal sets from a cover of all minimal non-trivial
// FDs — the TANE→Armstrong bridge the paper sketches in §5.1, kept here as
// an independent oracle for Compute. Since Tr(Tr(H)) = H for simple
// hypergraphs, cmax(dep(r),A) = Tr(lhs(dep(r),A)), where lhs(dep(r),A) is the cover's LHS family for A
// plus the trivial {A} (or just {∅} when ∅ → A holds — then A is constant
// and has no maximal sets).
//
// The cover must contain exactly the minimal FDs per RHS (what TANE and
// Dep-Miner emit); arbitrary covers would first need minimisation per
// attribute.
func FromCover(ctx context.Context, cover fd.Cover, arity int) (*Result, error) {
	byRHS := cover.ByRHS(arity)
	max := make([]attrset.Family, arity)
	for a := 0; a < arity; a++ {
		lhs := byRHS[a]
		constant := false
		for _, x := range lhs {
			if x.IsEmpty() {
				constant = true
				break
			}
		}
		if constant {
			// lhs(dep(r),A) = {∅}: A agrees in every couple, no agree
			// set avoids it, so max(dep(r),A) = ∅.
			max[a] = nil
			continue
		}
		// lhs(dep(r),A) includes the trivial {A}.
		family := append(attrset.Family{attrset.Single(a)}, lhs...)
		h := hypergraph.Simplify(family)
		cmax, err := h.MinimalTransversals(ctx)
		if err != nil {
			return nil, err
		}
		if len(cmax) == 1 && cmax[0].IsEmpty() {
			// Tr of edgeless hypergraph — cannot happen since family is
			// never empty, but keep the invariant explicit.
			max[a] = nil
			continue
		}
		fam := make(attrset.Family, len(cmax))
		for i, e := range cmax {
			fam[i] = e.Complement(arity)
		}
		max[a] = fam
	}
	return FromMax(max, arity), nil
}

// FromMax rebuilds a Result (both Max and CMax) from per-attribute maximal
// sets, as FromCover recovers them from LHSs via transversals rather than
// from agree sets.
func FromMax(max []attrset.Family, arity int) *Result {
	res := &Result{
		Arity: arity,
		Max:   make([]attrset.Family, arity),
		CMax:  make([]attrset.Family, arity),
	}
	for a := 0; a < arity; a++ {
		var m attrset.Family
		if a < len(max) {
			m = max[a].Dedup()
		}
		m.Sort()
		res.Max[a] = m
		cmax := make(attrset.Family, len(m))
		for i, x := range m {
			cmax[i] = x.Complement(arity)
		}
		cmax.Sort()
		res.CMax[a] = cmax
	}
	res.all = unionMax(res.Max)
	return res
}

// unionMax is MAX(dep(r)) = ⋃_A max(dep(r),A), deduplicated and sorted:
// the AllMax of the oracles, which collect no MAX of their own.
func unionMax(max []attrset.Family) attrset.Family {
	var all attrset.Family
	for _, f := range max {
		all = append(all, f...)
	}
	all = all.Dedup()
	all.Sort()
	return all
}

// TestFromCoverPaperExample: rebuilding maximal sets from the 14 minimal
// FDs via Tr(lhs) must give the same max/cmax as the agree-set path.
func TestFromCoverPaperExample(t *testing.T) {
	r := relation.PaperExample()
	cover := fd.MineBrute(r)
	res, err := FromCover(context.Background(), cover, r.Arity())
	if err != nil {
		t.Fatal(err)
	}
	ag, err := agree.FromRelation(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	want := Compute(ag.Sets, r.Arity())
	for a := 0; a < r.Arity(); a++ {
		if !res.Max[a].Equal(want.Max[a]) {
			t.Errorf("max[%c] = %v, want %v", 'A'+a, res.Max[a].Strings(), want.Max[a].Strings())
		}
		if !res.CMax[a].Equal(want.CMax[a]) {
			t.Errorf("cmax[%c] = %v, want %v", 'A'+a, res.CMax[a].Strings(), want.CMax[a].Strings())
		}
	}
	if !res.AllMax().Equal(want.AllMax()) {
		t.Errorf("AllMax = %v, want %v", res.AllMax().Strings(), want.AllMax().Strings())
	}
}

func TestFromCoverConstantColumn(t *testing.T) {
	// ∅ → B: attribute B has no maximal sets.
	cover := fd.Cover{{LHS: attrset.Empty(), RHS: 1}}
	res, err := FromCover(context.Background(), cover, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Max[1]) != 0 {
		t.Errorf("max[B] = %v, want empty", res.Max[1].Strings())
	}
	// Attribute A has no FDs: lhs = {A}, cmax = Tr({A}) = {A},
	// max = {R \ A} = {B}.
	if !res.Max[0].Equal(attrset.Family{attrset.Single(1)}) {
		t.Errorf("max[A] = %v, want {B}", res.Max[0].Strings())
	}
}

// TestFromCoverMatchesAgreePathOnRandomRelations: property test of the
// nihilpotence bridge on random relations.
func TestFromCoverMatchesAgreePathOnRandomRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(5)
		rows := rng.Intn(15)
		cols := make([][]int, n)
		for a := range cols {
			cols[a] = make([]int, rows)
			dom := 1 + rng.Intn(5)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(dom)
			}
		}
		r, err := relation.FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		r = r.Deduplicate()
		cover := fd.MineBrute(r)
		got, err := FromCover(context.Background(), cover, n)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := agree.FromRelation(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		want := Compute(ag.Sets, n)
		for a := 0; a < n; a++ {
			if !got.Max[a].Equal(want.Max[a]) {
				t.Fatalf("iter %d: max[%d] = %v, want %v\nrelation:\n%v",
					iter, a, got.Max[a].Strings(), want.Max[a].Strings(), r)
			}
		}
	}
}

func TestFromCoverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cover := fd.Cover{{LHS: attrset.Single(1), RHS: 0}}
	if _, err := FromCover(ctx, cover, 2); err == nil {
		t.Error("cancelled context should abort")
	}
}
