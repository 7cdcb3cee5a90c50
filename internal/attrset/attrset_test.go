package attrset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEmptyAndZeroValue(t *testing.T) {
	var z Set
	if !z.IsEmpty() {
		t.Error("zero value must be empty")
	}
	if Empty() != z {
		t.Error("Empty() must equal the zero value")
	}
	if z.Len() != 0 {
		t.Errorf("empty Len = %d, want 0", z.Len())
	}
	if z.Min() != -1 || z.Max() != -1 {
		t.Errorf("empty Min/Max = %d/%d, want -1/-1", z.Min(), z.Max())
	}
	if z.String() != "∅" {
		t.Errorf("empty String = %q, want ∅", z.String())
	}
}

func TestAddRemoveContains(t *testing.T) {
	var s Set
	for _, a := range []int{0, 1, 63, 64, 127, 128, 255} {
		if s.Contains(a) {
			t.Fatalf("fresh set contains %d", a)
		}
		s.Add(a)
		if !s.Contains(a) {
			t.Fatalf("after Add(%d), Contains is false", a)
		}
	}
	if s.Len() != 7 {
		t.Fatalf("Len = %d, want 7", s.Len())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("after Remove(64), Contains is true")
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6", s.Len())
	}
	// Removing an absent element is a no-op.
	before := s
	s.Remove(64)
	if s != before {
		t.Error("Remove of absent element changed the set")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Add-negative", func() { var s Set; s.Add(-1) }},
		{"Add-too-big", func() { var s Set; s.Add(MaxAttrs) }},
		{"Remove-negative", func() { var s Set; s.Remove(-1) }},
		{"Universe-negative", func() { Universe(-1) }},
		{"Universe-too-big", func() { Universe(MaxAttrs + 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestContainsOutOfRangeIsFalse(t *testing.T) {
	s := Universe(MaxAttrs)
	if s.Contains(-1) || s.Contains(MaxAttrs) {
		t.Error("Contains must be false outside [0, MaxAttrs)")
	}
}

func TestUniverse(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64, 65, 128, 200, 256} {
		u := Universe(n)
		if u.Len() != n {
			t.Errorf("Universe(%d).Len = %d", n, u.Len())
		}
		if n > 0 && (u.Min() != 0 || u.Max() != n-1) {
			t.Errorf("Universe(%d) Min/Max = %d/%d", n, u.Min(), u.Max())
		}
		if n < MaxAttrs && u.Contains(n) {
			t.Errorf("Universe(%d) contains %d", n, n)
		}
	}
}

func TestSetAlgebraPaperExample(t *testing.T) {
	// ag(1,6) = BDE, ag(4,5) = CE from the paper's running example.
	bde := New(1, 3, 4)
	ce := New(2, 4)
	if got := bde.Intersect(ce); got != New(4) {
		t.Errorf("BDE ∩ CE = %v, want E", got)
	}
	if got := bde.Union(ce); got != New(1, 2, 3, 4) {
		t.Errorf("BDE ∪ CE = %v, want BCDE", got)
	}
	if got := bde.Diff(ce); got != New(1, 3) {
		t.Errorf("BDE \\ CE = %v, want BD", got)
	}
	// cmax example: R \ BDE = AC with |R| = 5.
	if got := bde.Complement(5); got != New(0, 2) {
		t.Errorf("complement(BDE) = %v, want AC", got)
	}
	if bde.String() != "BDE" {
		t.Errorf("String = %q, want BDE", bde.String())
	}
}

func TestSubsetRelations(t *testing.T) {
	a := New(1, 3)
	b := New(1, 3, 4)
	if !a.SubsetOf(b) || !a.ProperSubsetOf(b) {
		t.Error("BD ⊂ BDE expected")
	}
	if b.SubsetOf(a) {
		t.Error("BDE ⊄ BD expected")
	}
	if !a.SubsetOf(a) || a.ProperSubsetOf(a) {
		t.Error("subset reflexivity violated")
	}
	if !a.Intersects(b) {
		t.Error("BD intersects BDE expected")
	}
	c := New(0, 2)
	if a.Intersects(c) {
		t.Error("BD disjoint AC expected")
	}
	// Empty set edge cases.
	var e Set
	if !e.SubsetOf(a) || e.Intersects(a) {
		t.Error("∅ ⊆ X and ∅ ∩ X = ∅ expected")
	}
}

func TestWithWithout(t *testing.T) {
	s := New(1, 2)
	if s.With(5) != New(1, 2, 5) {
		t.Error("With failed")
	}
	if s != New(1, 2) {
		t.Error("With mutated receiver")
	}
	if s.Without(1) != New(2) {
		t.Error("Without failed")
	}
	if s != New(1, 2) {
		t.Error("Without mutated receiver")
	}
}

func TestAttrsAndForEachOrder(t *testing.T) {
	in := []int{200, 3, 64, 0, 127}
	s := New(in...)
	slices.Sort(in)
	got := s.Attrs()
	if len(got) != len(in) {
		t.Fatalf("Attrs len = %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("Attrs[%d] = %d, want %d", i, got[i], in[i])
		}
	}
}

func TestNext(t *testing.T) {
	s := New(2, 63, 64, 200)
	want := []int{2, 63, 64, 200, -1}
	a := -1
	for _, w := range want {
		a = s.Next(a)
		if a != w {
			t.Fatalf("Next chain got %d, want %d", a, w)
		}
	}
	if s.Next(255) != -1 {
		t.Error("Next(255) should be -1")
	}
	if s.Next(-5) != 2 {
		t.Error("Next(-5) should be Min")
	}
}

func TestCompare(t *testing.T) {
	// Canonical order: cardinality first, then lexicographic.
	ordered := []Set{
		New(0),          // A
		New(1),          // B
		New(0, 1),       // AB
		New(0, 2),       // AC
		New(1, 2),       // BC
		New(0, 1, 2),    // ABC
		New(0, 1, 3),    // ABD
		New(1, 3, 4),    // BDE
		New(0, 1, 2, 3), // ABCD
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareLex(t *testing.T) {
	// A < AB < ABC < AC < B in lexicographic element order.
	ordered := []Set{New(0), New(0, 1), New(0, 1, 2), New(0, 2), New(1)}
	for i := 0; i+1 < len(ordered); i++ {
		if ordered[i].CompareLex(ordered[i+1]) >= 0 {
			t.Errorf("lex order violated between %v and %v", ordered[i], ordered[i+1])
		}
	}
	if New(1, 3).CompareLex(New(1, 3)) != 0 {
		t.Error("lex self-compare not 0")
	}
}

func TestStringNamesParse(t *testing.T) {
	s := New(1, 3, 4)
	if s.String() != "BDE" {
		t.Errorf("String = %q", s.String())
	}
	names := []string{"empnum", "depnum", "year", "depname", "mgr"}
	if got := s.Names(names, ","); got != "depnum,depname,mgr" {
		t.Errorf("Names = %q", got)
	}
	if got := New(0, 30).Names(names[:1], ","); got != "empnum,attr30" {
		t.Errorf("Names fallback = %q", got)
	}
	for _, tc := range []struct {
		s    Set
		want string
	}{
		{New(30), "·attr30"},
		{New(0, 25, 26, 27), "AZ·attr26·attr27"},
		{New(25, 63, 64, 70), "Z·attr63·attr64·attr70"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.s.Attrs(), got, tc.want)
		}
	}

	p, ok := Parse("bDe")
	if !ok || p != s {
		t.Errorf("Parse(bDe) = %v, %v", p, ok)
	}
	if p, ok := Parse(""); !ok || !p.IsEmpty() {
		t.Error("Parse empty failed")
	}
	if p, ok := Parse("∅"); !ok || !p.IsEmpty() {
		t.Error("Parse ∅ failed")
	}
	if _, ok := Parse("A B"); ok {
		t.Error("Parse should reject spaces")
	}
}

func TestValid(t *testing.T) {
	if !Valid(0) || !Valid(256) || Valid(-1) || Valid(257) {
		t.Error("Valid boundaries wrong")
	}
}

// randSet draws a random set over n attributes.
func randSet(rng *rand.Rand, n int) Set {
	var s Set
	for a := 0; a < n; a++ {
		if rng.Intn(2) == 1 {
			s.Add(a)
		}
	}
	return s
}

func TestPropertySetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(MaxAttrs)
		s, u, v := randSet(rng, n), randSet(rng, n), randSet(rng, n)

		if got := s.Union(u).Intersect(s); !s.SubsetOf(s.Union(u)) || got != s {
			t.Fatalf("absorption failed for %v %v", s, u)
		}
		if s.Union(u) != u.Union(s) || s.Intersect(u) != u.Intersect(s) {
			t.Fatal("commutativity failed")
		}
		if s.Union(u).Union(v) != s.Union(u.Union(v)) {
			t.Fatal("associativity failed")
		}
		// De Morgan within a universe.
		un := Universe(n)
		if s.Union(u).Complement(n) != s.Complement(n).Intersect(u.Complement(n)) {
			t.Fatal("De Morgan failed")
		}
		if s.Diff(u) != s.Intersect(u.Complement(n)).Intersect(un) {
			t.Fatal("diff identity failed")
		}
		// Cardinality inclusion–exclusion.
		if s.Union(u).Len()+s.Intersect(u).Len() != s.Len()+u.Len() {
			t.Fatal("inclusion-exclusion failed")
		}
		// Round-trip through Attrs.
		if New(s.Attrs()...) != s {
			t.Fatal("Attrs round-trip failed")
		}
		// Compare is antisymmetric and consistent with equality.
		if (s.Compare(u) == 0) != (s == u) {
			t.Fatal("Compare zero iff equal failed")
		}
		if s.Compare(u) != -u.Compare(s) {
			t.Fatal("Compare antisymmetry failed")
		}
	}
}

func TestQuickSubsetTransitivity(t *testing.T) {
	f := func(aw, bw [Words]uint64) bool {
		a, b := Set(aw), Set(bw)
		ab := a.Intersect(b)
		// a∩b ⊆ a ⊆ a∪b always.
		return ab.SubsetOf(a) && a.SubsetOf(a.Union(b)) && ab.Len() <= a.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFamilyMaximalMinimal(t *testing.T) {
	// Paper example 4: classes {1,2},{1,6},{2,7},{3,4},{4,5},{3,4,5} →
	// maximal = {1,2},{1,6},{2,7},{3,4,5}. Encoded as attr sets over ids.
	f := Family{New(1, 2), New(1, 6), New(2, 7), New(3, 4), New(4, 5), New(3, 4, 5)}
	max := f.Maximal()
	want := Family{New(1, 2), New(1, 6), New(2, 7), New(3, 4, 5)}
	if !max.Equal(want) {
		t.Errorf("Maximal = %v, want %v", max.Strings(), want.Strings())
	}
	min := f.Minimal()
	wantMin := Family{New(1, 2), New(1, 6), New(2, 7), New(3, 4), New(4, 5)}
	if !min.Equal(wantMin) {
		t.Errorf("Minimal = %v, want %v", min.Strings(), wantMin.Strings())
	}
}

func TestFamilyMaximalDuplicatesAndEmpty(t *testing.T) {
	f := Family{New(1), New(1), Empty()}
	max := f.Maximal()
	if !max.Equal(Family{New(1)}) {
		t.Errorf("Maximal = %v", max.Strings())
	}
	if got := (Family{}).Maximal(); len(got) != 0 {
		t.Errorf("Maximal of empty = %v", got)
	}
	min := f.Minimal()
	if !min.Equal(Family{Empty()}) {
		t.Errorf("Minimal = %v", min.Strings())
	}
}

func TestFamilyEqualDedupContains(t *testing.T) {
	f := Family{New(1), New(2), New(1)}
	g := Family{New(2), New(1)}
	if !f.Equal(g) {
		t.Error("Equal should ignore order and duplicates")
	}
	if f.Equal(Family{New(1)}) {
		t.Error("Equal false negative expected")
	}
	if d := f.Dedup(); len(d) != 2 {
		t.Errorf("Dedup len = %d", len(d))
	}
	if !f.Contains(New(2)) || f.Contains(New(3)) {
		t.Error("Contains wrong")
	}
}

func TestFamilyIsSimple(t *testing.T) {
	if !(Family{New(0, 2), New(0, 1, 3)}).IsSimple() {
		t.Error("antichain should be simple")
	}
	if (Family{New(0), New(0, 1)}).IsSimple() {
		t.Error("nested edges are not simple")
	}
	if (Family{Empty()}).IsSimple() {
		t.Error("empty edge is not simple")
	}
	// Duplicates collapse, so {X, X} is simple.
	if !(Family{New(0, 1), New(0, 1)}).IsSimple() {
		t.Error("duplicate edges should collapse")
	}
}

func TestFamilySortDeterminism(t *testing.T) {
	f := Family{New(1, 3, 4), New(0), New(0, 2), New(1)}
	f.Sort()
	want := []string{"A", "B", "AC", "BDE"}
	for i, s := range f {
		if s.String() != want[i] {
			t.Fatalf("Sort order[%d] = %s, want %s", i, s, want[i])
		}
	}
	g := f.Clone()
	g.SortLex()
	wantLex := []string{"A", "AC", "B", "BDE"}
	for i, s := range g {
		if s.String() != wantLex[i] {
			t.Fatalf("SortLex order[%d] = %s, want %s", i, s, wantLex[i])
		}
	}
}

func TestPropertyMaximalMinimalInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(10)
		f := make(Family, rng.Intn(12))
		for j := range f {
			f[j] = randSet(rng, n)
		}
		max := f.Maximal()
		// Every input set is ⊆ some maximal set; maximal family is an antichain.
		for _, s := range f {
			covered := false
			for _, m := range max {
				if s.SubsetOf(m) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("set %v not covered by Maximal %v", s, max.Strings())
			}
		}
		for i, a := range max {
			for j, b := range max {
				if i != j && a.SubsetOf(b) {
					t.Fatalf("Maximal not an antichain: %v ⊆ %v", a, b)
				}
			}
		}
		min := f.Minimal()
		for _, s := range f {
			covered := false
			for _, m := range min {
				if m.SubsetOf(s) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("set %v not covered by Minimal %v", s, min.Strings())
			}
		}
	}
}

// SortLex orders the family lexicographically by element sequence.
func (f Family) SortLex() {
	slices.SortFunc(f, Set.CompareLex)
}

// IsSimple reports whether f is a simple hypergraph over its union: no
// empty edge and no edge contained in another (after dedup).
func (f Family) IsSimple() bool {
	d := f.Dedup()
	for i, s := range d {
		if s.IsEmpty() {
			return false
		}
		for j, t := range d {
			if i != j && s.SubsetOf(t) {
				return false
			}
		}
	}
	return true
}
