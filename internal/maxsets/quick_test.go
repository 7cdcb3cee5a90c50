package maxsets

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/attrset"
	"repro/internal/hypergraph"
)

// computeRef is the per-attribute CMAX_SET the one-pass Compute replaced:
// bucket the agree sets by excluded attribute, take Max⊆ of each bucket,
// complement and sort. Kept here as a reference implementation.
func computeRef(agreeSets attrset.Family, arity int) *Result {
	res := &Result{
		Arity: arity,
		Max:   make([]attrset.Family, arity),
		CMax:  make([]attrset.Family, arity),
	}
	candidates := make([]attrset.Family, arity)
	for _, x := range agreeSets {
		for a := 0; a < arity; a++ {
			if !x.Contains(a) {
				candidates[a] = append(candidates[a], x)
			}
		}
	}
	for a := 0; a < arity; a++ {
		res.Max[a] = candidates[a].Maximal()
		cmax := make(attrset.Family, len(res.Max[a]))
		for i, x := range res.Max[a] {
			cmax[i] = x.Complement(arity)
		}
		cmax.Sort()
		res.CMax[a] = cmax
	}
	res.all = unionMax(res.Max)
	return res
}

// agreeFamily is a random agree-set family for testing/quick: arity
// 1..70 (crossing the first attrset word boundary), with ∅, R,
// duplicates, subset chains and, half of the time, non-canonical order.
type agreeFamily struct {
	Arity int
	Sets  attrset.Family
}

func (agreeFamily) Generate(rng *rand.Rand, size int) reflect.Value {
	arity := 1 + rng.Intn(70)
	universe := attrset.Universe(arity)
	density := 0.1 + 0.8*rng.Float64()
	var f attrset.Family
	for n := rng.Intn(size + 1); n > 0; n-- {
		switch k := rng.Intn(10); {
		case k == 0:
			f = append(f, attrset.Empty())
		case k == 1:
			f = append(f, universe)
		case k == 2 && len(f) > 0:
			f = append(f, f[rng.Intn(len(f))])
		case k <= 5 && len(f) > 0:
			// A subset of an earlier set, so ⊆-chains occur at any arity.
			x := f[rng.Intn(len(f))]
			x.ForEach(func(a attrset.Attr) {
				if rng.Intn(3) == 0 {
					x.Remove(a)
				}
			})
			f = append(f, x)
		default:
			var x attrset.Set
			for a := 0; a < arity; a++ {
				if rng.Float64() < density {
					x.Add(a)
				}
			}
			f = append(f, x)
		}
	}
	if rng.Intn(2) == 0 {
		f = f.Dedup()
		f.Sort()
	} else {
		rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	}
	return reflect.ValueOf(agreeFamily{Arity: arity, Sets: f})
}

func sameResult(got, want *Result) bool {
	for a := 0; a < got.Arity; a++ {
		if !slices.Equal(got.Max[a], want.Max[a]) || !slices.Equal(got.CMax[a], want.CMax[a]) {
			return false
		}
	}
	return slices.Equal(got.AllMax(), want.AllMax())
}

// TestQuickComputeMatchesOracles pins the one-pass Compute against two
// independent routes to the same maximal sets — the per-attribute Max⊆
// loop and Figure 1's disagree-set dual — in exact canonical order, and
// checks that every CMax family is a simple hypergraph already in
// canonical order: the precondition of hypergraph.Unchecked.
func TestQuickComputeMatchesOracles(t *testing.T) {
	prop := func(in agreeFamily) bool {
		input := slices.Clone(in.Sets)
		got := Compute(in.Sets, in.Arity)
		if !slices.Equal(in.Sets, input) {
			t.Logf("Compute modified its input")
			return false
		}
		if want := computeRef(in.Sets, in.Arity); !sameResult(got, want) {
			t.Logf("arity %d ag %v: Compute differs from computeRef", in.Arity, in.Sets.Strings())
			return false
		}
		dual := FromDisagreeSets(DisagreeSets(in.Sets, in.Arity), in.Arity)
		if !sameResult(got, dual) {
			t.Logf("arity %d ag %v: Compute differs from the disagree-set dual", in.Arity, in.Sets.Strings())
			return false
		}
		for a, cmax := range got.CMax {
			_, err := hypergraph.New(cmax)
			canonical := slices.IsSortedFunc(cmax, attrset.Set.Compare) && len(cmax.Dedup()) == len(cmax)
			if err != nil || !canonical {
				t.Logf("arity %d: CMax[%d] = %v is not simple and canonical (%v)", in.Arity, a, cmax.Strings(), err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(18))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
