package attrset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate lets quick.Check draw random Sets over the full range.
func (Set) Generate(rand *rand.Rand, size int) reflect.Value {
	var s Set
	// Bias towards small universes so subset relations actually occur.
	n := 1 + rand.Intn(16)
	for a := 0; a < n; a++ {
		if rand.Intn(2) == 1 {
			s.Add(a)
		}
	}
	return reflect.ValueOf(s)
}

func qc(t *testing.T, name string, f interface{}) {
	t.Helper()
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestQuickLatticeLaws(t *testing.T) {
	qc(t, "idempotence", func(a Set) bool {
		return a.Union(a) == a && a.Intersect(a) == a
	})
	qc(t, "absorption", func(a, b Set) bool {
		return a.Union(a.Intersect(b)) == a && a.Intersect(a.Union(b)) == a
	})
	qc(t, "distributivity", func(a, b, c Set) bool {
		return a.Intersect(b.Union(c)) == a.Intersect(b).Union(a.Intersect(c)) &&
			a.Union(b.Intersect(c)) == a.Union(b).Intersect(a.Union(c))
	})
	qc(t, "difference", func(a, b Set) bool {
		d := a.Diff(b)
		return !d.Intersects(b) && d.Union(a.Intersect(b)) == a
	})
	qc(t, "subset-definitions-agree", func(a, b Set) bool {
		viaIntersect := a.Intersect(b) == a
		viaUnion := a.Union(b) == b
		return a.SubsetOf(b) == viaIntersect && viaIntersect == viaUnion
	})
}

func TestQuickCompareIsTotalOrder(t *testing.T) {
	qc(t, "antisymmetry", func(a, b Set) bool {
		return a.Compare(b) == -b.Compare(a)
	})
	qc(t, "lex-antisymmetry", func(a, b Set) bool {
		return a.CompareLex(b) == -b.CompareLex(a)
	})
	qc(t, "transitivity", func(a, b, c Set) bool {
		// Sort the three and verify pairwise consistency.
		s := Family{a, b, c}
		s.Sort()
		return s[0].Compare(s[1]) <= 0 && s[1].Compare(s[2]) <= 0 && s[0].Compare(s[2]) <= 0
	})
	qc(t, "cardinality-dominates", func(a, b Set) bool {
		if a.Len() < b.Len() {
			return a.Compare(b) < 0
		}
		return true
	})
}

func TestQuickIterationConsistency(t *testing.T) {
	qc(t, "foreach-visits-len", func(a Set) bool {
		n := 0
		prev := -1
		ordered := true
		a.ForEach(func(x Attr) {
			if x <= prev {
				ordered = false
			}
			prev = x
			n++
		})
		return n == a.Len() && ordered
	})
	qc(t, "next-chain-equals-attrs", func(a Set) bool {
		var via []Attr
		for x := a.Next(-1); x != -1; x = a.Next(x) {
			via = append(via, x)
		}
		want := a.Attrs()
		if len(via) != len(want) {
			return false
		}
		for i := range via {
			if via[i] != want[i] {
				return false
			}
		}
		return true
	})
	qc(t, "min-max-consistent", func(a Set) bool {
		attrs := a.Attrs()
		if len(attrs) == 0 {
			return a.Min() == -1 && a.Max() == -1
		}
		return a.Min() == attrs[0] && a.Max() == attrs[len(attrs)-1]
	})
}

func TestQuickComplementInvolution(t *testing.T) {
	qc(t, "complement", func(a Set) bool {
		n := 16
		inRange := a.Intersect(Universe(n))
		c := inRange.Complement(n)
		return c.Complement(n) == inRange &&
			c.Union(inRange) == Universe(n) &&
			!c.Intersects(inRange)
	})
}

func TestQuickFamilyMaximalMinimalDuality(t *testing.T) {
	qc(t, "duality", func(a, b, c, d Set) bool {
		f := Family{a, b, c, d}
		max := f.Maximal()
		min := f.Minimal()
		// Maximal and Minimal are antichains covering the family from
		// above resp. below, and fixpoints of themselves.
		return max.Maximal().Equal(max) && min.Minimal().Equal(min) &&
			len(max) <= len(f.Dedup()) && len(min) <= len(f.Dedup())
	})
}
