package partition

import (
	"math/rand"
	"testing"

	"repro/internal/attrset"
	"repro/internal/relation"
)

// randRelation draws a small random relation for partition laws.
func randRelation(rng *rand.Rand) *relation.Relation {
	n := 1 + rng.Intn(4)
	rows := rng.Intn(30)
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
		panic(err)
	}
	return r
}

func randSubset(rng *rand.Rand, n int) attrset.Set {
	var s attrset.Set
	for a := 0; a < n; a++ {
		if rng.Intn(2) == 0 {
			s.Add(a)
		}
	}
	return s
}

func TestQuickProductLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 150; iter++ {
		r := randRelation(rng)
		x := randSubset(rng, r.Arity())
		y := randSubset(rng, r.Arity())
		px, py := Of(r, x), Of(r, y)
		pxy := Product(px, py)

		// Product = partition of the union.
		direct := Of(r, x.Union(y))
		if !classesEqual(classes(pxy), classes(direct)) {
			t.Fatalf("product != union partition for %v, %v", x, y)
		}
		// Idempotence.
		if !classesEqual(classes(Product(px, px)), classes(px)) {
			t.Fatalf("product not idempotent for %v", x)
		}
		// The product refines both factors.
		if !refines(pxy, px) || !refines(pxy, py) {
			t.Fatalf("product does not refine factors for %v, %v", x, y)
		}
		// Monotone statistics: |π_{X∪Y}| ≥ |π_X|, error decreases.
		if pxy.FullClassCount() < px.FullClassCount() {
			t.Fatalf("class count decreased under product")
		}
		if pxy.Error() > px.Error()+1e-12 {
			t.Fatalf("error increased under product")
		}
		// Couples shrink or stay under refinement.
		if pxy.Couples() > px.Couples() {
			t.Fatalf("couples grew under product")
		}
	}
}

func TestQuickRefinesReflexiveAndAntisymmetricOnCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 100; iter++ {
		r := randRelation(rng)
		x := randSubset(rng, r.Arity())
		y := randSubset(rng, r.Arity())
		px, py := Of(r, x), Of(r, y)
		if !refines(px, px) {
			t.Fatal("Refines not reflexive")
		}
		// Superset attribute sets refine subset attribute sets.
		if x.SubsetOf(y) && !refines(py, px) {
			t.Fatalf("π_%v should refine π_%v", y, x)
		}
		// Mutual refinement ⇒ identical canonical classes.
		if refines(px, py) && refines(py, px) {
			if !classesEqual(classes(px), classes(py)) {
				t.Fatalf("mutually refining partitions differ: %v vs %v", classes(px), classes(py))
			}
		}
	}
}

func TestQuickStatisticsIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 100; iter++ {
		r := randRelation(rng)
		for a := 0; a < r.Arity(); a++ {
			p := Single(r, a)
			if p.Size() < 2*p.NumClasses() {
				t.Fatal("stripped classes must have ≥ 2 tuples")
			}
			if p.FullClassCount() != r.DomainSize(a) && r.Rows() > 0 {
				t.Fatalf("full class count %d != domain size %d",
					p.FullClassCount(), r.DomainSize(a))
			}
			if p.IsUnique() != (p.Couples() == 0) {
				t.Fatal("IsUnique and Couples disagree")
			}
			// e(X)·|r| = ||π̂|| − |π̂| exactly.
			if r.Rows() > 0 {
				lhs := p.Error() * float64(r.Rows())
				rhs := float64(p.Size() - p.NumClasses())
				if lhs != rhs {
					t.Fatalf("error identity violated: %v != %v", lhs, rhs)
				}
			}
		}
	}
}

func TestQuickMCPreservesCoupleCoverage(t *testing.T) {
	// Every couple inside any stripped-partition class appears inside
	// some MC class (the substance of Lemma 1).
	rng := rand.New(rand.NewSource(36))
	for iter := 0; iter < 60; iter++ {
		r := randRelation(rng)
		db := NewDatabase(r)
		mc := db.MaximalClasses()
		inSameMC := func(t1, t2 int) bool {
			for _, c := range mc {
				has1, has2 := false, false
				for _, t := range c {
					if t == t1 {
						has1 = true
					}
					if t == t2 {
						has2 = true
					}
				}
				if has1 && has2 {
					return true
				}
			}
			return false
		}
		for _, p := range db.Attr {
			for _, cls := range classes(p) {
				for i := 0; i < len(cls); i++ {
					for j := i + 1; j < len(cls); j++ {
						if !inSameMC(cls[i], cls[j]) {
							t.Fatalf("couple (%d,%d) lost by MC", cls[i], cls[j])
						}
					}
				}
			}
		}
	}
}
