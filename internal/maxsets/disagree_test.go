package maxsets

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/partition"
	"repro/internal/relation"
)

// DisagreeSets converts agree sets to disagree sets: the complements
// dis(r) = {R \ X | X ∈ ag(r)}. The paper's Figure 1 shows this as the
// alternative route to complements of maximal sets (used by Mannila &
// Räihä's original derivation, cf. footnote 3).
func DisagreeSets(agreeSets attrset.Family, arity int) attrset.Family {
	out := make(attrset.Family, len(agreeSets))
	for i, x := range agreeSets {
		out[i] = x.Complement(arity)
	}
	out.Sort()
	return out
}

// FromDisagreeSets runs the dual of Compute along Figure 1's lower path:
// cmax(dep(r),A) = Min⊆{D ∈ dis(r) | A ∈ D}, from which the maximal sets
// follow by complementation. It must agree exactly with Compute on the
// corresponding agree sets; it is kept here as an independent oracle.
func FromDisagreeSets(disagreeSets attrset.Family, arity int) *Result {
	res := &Result{
		Arity: arity,
		Max:   make([]attrset.Family, arity),
		CMax:  make([]attrset.Family, arity),
	}
	candidates := make([]attrset.Family, arity)
	for _, d := range disagreeSets {
		d.ForEach(func(a attrset.Attr) {
			if a < arity {
				candidates[a] = append(candidates[a], d)
			}
		})
	}
	for a := 0; a < arity; a++ {
		cmax := candidates[a].Minimal()
		res.CMax[a] = cmax
		max := make(attrset.Family, len(cmax))
		for i, d := range cmax {
			max[i] = d.Complement(arity)
		}
		max.Sort()
		res.Max[a] = max
	}
	res.all = unionMax(res.Max)
	return res
}

func TestDisagreeSetsPaperExample(t *testing.T) {
	// ag(r) = {∅, A, BDE, CE, E} → dis(r) = {ABCDE, BCDE, AC, ABD, ABCD}.
	ag := sets("∅", "A", "BDE", "CE", "E")
	dis := DisagreeSets(ag, 5)
	want := sets("ABCDE", "BCDE", "AC", "ABD", "ABCD")
	if !dis.Equal(want) {
		t.Errorf("dis(r) = %v, want %v", dis.Strings(), want.Strings())
	}
	// Involution.
	if !DisagreeSets(dis, 5).Equal(ag) {
		t.Error("DisagreeSets is not an involution")
	}
}

func TestFromDisagreeSetsMatchesComputePaperExample(t *testing.T) {
	r := relation.PaperExample()
	agr, err := agree.Couples(context.Background(), partition.NewDatabase(r), agree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaAgree := Compute(agr.Sets, r.Arity())
	viaDisagree := FromDisagreeSets(DisagreeSets(agr.Sets, r.Arity()), r.Arity())
	for a := 0; a < r.Arity(); a++ {
		if !viaAgree.Max[a].Equal(viaDisagree.Max[a]) {
			t.Errorf("max[%c]: agree path %v, disagree path %v",
				'A'+a, viaAgree.Max[a].Strings(), viaDisagree.Max[a].Strings())
		}
		if !viaAgree.CMax[a].Equal(viaDisagree.CMax[a]) {
			t.Errorf("cmax[%c]: agree path %v, disagree path %v",
				'A'+a, viaAgree.CMax[a].Strings(), viaDisagree.CMax[a].Strings())
		}
	}
}

// TestPropertyFigureOneDuality: the two routes of the paper's Figure 1
// coincide on random agree-set families.
func TestPropertyFigureOneDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for iter := 0; iter < 200; iter++ {
		arity := 1 + rng.Intn(7)
		var ag attrset.Family
		for k := 0; k < rng.Intn(10); k++ {
			var x attrset.Set
			for b := 0; b < arity; b++ {
				if rng.Intn(2) == 0 {
					x.Add(b)
				}
			}
			ag = append(ag, x)
		}
		ag = ag.Dedup()
		viaAgree := Compute(ag, arity)
		viaDisagree := FromDisagreeSets(DisagreeSets(ag, arity), arity)
		for a := 0; a < arity; a++ {
			if !viaAgree.Max[a].Equal(viaDisagree.Max[a]) {
				t.Fatalf("iter %d attr %d: %v vs %v (ag=%v)",
					iter, a, viaAgree.Max[a].Strings(), viaDisagree.Max[a].Strings(), ag.Strings())
			}
		}
		if !viaAgree.AllMax().Equal(viaDisagree.AllMax()) {
			t.Fatalf("iter %d: AllMax differs", iter)
		}
	}
}
