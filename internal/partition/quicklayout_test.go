package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attrset"
	"repro/internal/relation"
)

// refStripped is the map-based reference the flat row store replaced:
// tuples grouped by projected code tuple in a hash map, classes of size
// ≥ 2 kept, canonical order (by smallest tuple index).
func refStripped(r *relation.Relation, x attrset.Set) [][]int {
	groups := make(map[string][]int)
	var order []string
	for t := 0; t < r.Rows(); t++ {
		key := ""
		x.ForEach(func(a attrset.Attr) { key += fmt.Sprintf("%d,", r.Code(t, a)) })
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], t)
	}
	out := [][]int{}
	for _, k := range order {
		if c := groups[k]; len(c) > 1 {
			out = append(out, c)
		}
	}
	// First-occurrence order is already canonical; sort anyway so the
	// reference does not depend on that observation.
	slices.SortFunc(out, cmpInts)
	return out
}

// checkLayout asserts the flat-layout invariants: offsets bracket the
// shared row store exactly, and every class view is non-empty with ≥ 2
// tuples.
func checkLayout(t *testing.T, p *Partition) {
	t.Helper()
	if p.NumClasses() == 0 {
		if len(p.rows) != 0 {
			t.Fatalf("empty partition holds %d rows", len(p.rows))
		}
		return
	}
	if p.offs[0] != 0 || int(p.offs[len(p.offs)-1]) != len(p.rows) {
		t.Fatalf("offsets %v do not bracket %d rows", p.offs, len(p.rows))
	}
	total := 0
	for i := 0; i < p.NumClasses(); i++ {
		c := p.Class(i)
		if len(c) < 2 {
			t.Fatalf("class %d has %d tuples, want ≥ 2", i, len(c))
		}
		total += len(c)
	}
	if total != p.Size() {
		t.Fatalf("class views cover %d rows, Size() = %d", total, p.Size())
	}
}

// TestQuickFlatLayoutMatchesMapReference pits the flat counting-layout
// partition constructors — Single, Of, and the Prober product — against
// the map-based reference on random relations.
func TestQuickFlatLayoutMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 150; iter++ {
		r := randRelation(rng)
		x := randSubset(rng, r.Arity())
		y := randSubset(rng, r.Arity())

		px := Of(r, x)
		checkLayout(t, px)
		if !classesEqual(classes(px), refStripped(r, x)) {
			t.Fatalf("Of(%v) = %v, map reference %v", x, classes(px), refStripped(r, x))
		}
		for a := 0; a < r.Arity(); a++ {
			ps := Single(r, a)
			checkLayout(t, ps)
			if !classesEqual(classes(ps), refStripped(r, attrset.Single(a))) {
				t.Fatalf("Single(%d) diverges from map reference", a)
			}
		}
		pr := NewProber(r.Rows())
		prod := pr.Product(px, Of(r, y))
		checkLayout(t, prod)
		if !classesEqual(classes(prod), refStripped(r, x.Union(y))) {
			t.Fatalf("Product(%v, %v) diverges from map reference", x, y)
		}
	}
}
