package hypergraph

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attrset"
)

func sets(specs ...string) attrset.Family {
	out := make(attrset.Family, 0, len(specs))
	for _, s := range specs {
		set, ok := attrset.Parse(s)
		if !ok {
			panic("bad spec " + s)
		}
		out = append(out, set)
	}
	return out
}

func mustNew(t *testing.T, specs ...string) *Hypergraph {
	t.Helper()
	h, err := New(sets(specs...))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func tr(t *testing.T, h *Hypergraph) attrset.Family {
	t.Helper()
	out, err := h.MinimalTransversals(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Paper Example 10: Tr(cmax(dep(r),A)) with cmax = {AC, ABD} is
// {A, BC, CD}.
func TestPaperExampleAttributeA(t *testing.T) {
	h := mustNew(t, "AC", "ABD")
	got := tr(t, h)
	if !got.Equal(sets("A", "BC", "CD")) {
		t.Errorf("Tr = %v, want {A, BC, CD}", got.Strings())
	}
}

// The full lhs table of Example 10 for all five attributes.
func TestPaperExampleAllAttributes(t *testing.T) {
	cases := []struct {
		cmax []string
		want []string
	}{
		{[]string{"AC", "ABD"}, []string{"A", "BC", "CD"}},
		{[]string{"BCDE", "ABD"}, []string{"AC", "AE", "B", "D"}},
		{[]string{"BCDE", "AC"}, []string{"AB", "AD", "AE", "C"}},
		{[]string{"BCDE", "ABD"}, []string{"AC", "AE", "B", "D"}},
		{[]string{"BCDE"}, []string{"B", "C", "D", "E"}},
	}
	for i, c := range cases {
		h := mustNew(t, c.cmax...)
		got := tr(t, h)
		if !got.Equal(sets(c.want...)) {
			t.Errorf("attr %c: Tr = %v, want %v", 'A'+i, got.Strings(), c.want)
		}
	}
}

func TestNewRejectsNonSimple(t *testing.T) {
	if _, err := New(sets("A", "AB")); err == nil {
		t.Error("nested edges accepted")
	}
	if _, err := New(attrset.Family{attrset.Empty()}); err == nil {
		t.Error("empty edge accepted")
	}
	// Duplicates are fine (collapsed).
	h, err := New(sets("AB", "AB"))
	if err != nil || h.NumEdges() != 1 {
		t.Errorf("duplicate edges: %v, %d edges", err, h.NumEdges())
	}
}

func TestSimplify(t *testing.T) {
	h := Simplify(sets("AB", "A", "ABC", "", "CD"))
	if !h.Edges().Equal(sets("A", "CD")) {
		t.Errorf("Simplify = %v", h.Edges().Strings())
	}
	// Transversals preserved w.r.t. the original edge family (minus ∅
	// which no set can hit — Simplify drops it deliberately).
	orig := sets("AB", "A", "ABC", "CD")
	for _, tv := range tr(t, h) {
		for _, e := range orig {
			if !tv.Intersects(e) {
				t.Errorf("transversal %v misses original edge %v", tv, e)
			}
		}
	}
}

func TestEdgelessHypergraph(t *testing.T) {
	h := Simplify(nil)
	got := tr(t, h)
	if len(got) != 1 || !got[0].IsEmpty() {
		t.Errorf("Tr(edgeless) = %v, want {∅}", got.Strings())
	}
	if !h.IsTransversal(attrset.Empty()) {
		t.Error("∅ must be a transversal of the edgeless hypergraph")
	}
	th, err := h.Transversal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if th.NumEdges() != 0 {
		t.Errorf("Transversal(edgeless) has %d edges", th.NumEdges())
	}
}

func TestSingleEdge(t *testing.T) {
	h := mustNew(t, "BCE")
	got := tr(t, h)
	if !got.Equal(sets("B", "C", "E")) {
		t.Errorf("Tr = %v", got.Strings())
	}
}

func TestDisjointEdgesCrossProduct(t *testing.T) {
	// Tr({AB, CD}) = {AC, AD, BC, BD}.
	h := mustNew(t, "AB", "CD")
	got := tr(t, h)
	if !got.Equal(sets("AC", "AD", "BC", "BD")) {
		t.Errorf("Tr = %v", got.Strings())
	}
}

func TestIsMinimalTransversal(t *testing.T) {
	h := mustNew(t, "AC", "ABD")
	if !h.IsMinimalTransversal(attrset.New(0)) { // A
		t.Error("A should be a minimal transversal")
	}
	if h.IsMinimalTransversal(attrset.New(0, 1)) { // AB ⊃ A
		t.Error("AB is not minimal")
	}
	if h.IsMinimalTransversal(attrset.New(1)) { // B misses AC
		t.Error("B is not a transversal")
	}
	if !h.IsMinimalTransversal(attrset.New(1, 2)) { // BC
		t.Error("BC should be minimal")
	}
}

func TestVertices(t *testing.T) {
	h := mustNew(t, "AC", "ABD")
	if h.Vertices() != attrset.New(0, 1, 2, 3) {
		t.Errorf("Vertices = %v", h.Vertices())
	}
}

// bruteTransversals enumerates all subsets of the vertex universe and
// keeps the minimal transversals — ground truth for small hypergraphs.
func bruteTransversals(h *Hypergraph, n int) attrset.Family {
	var all attrset.Family
	for bits := 0; bits < 1<<n; bits++ {
		var s attrset.Set
		for b := 0; b < n; b++ {
			if bits&(1<<b) != 0 {
				s.Add(b)
			}
		}
		if h.IsTransversal(s) {
			all = append(all, s)
		}
	}
	return all.Minimal()
}

func TestPropertyAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 150; iter++ {
		n := 1 + rng.Intn(7)
		numEdges := 1 + rng.Intn(5)
		var raw attrset.Family
		for e := 0; e < numEdges; e++ {
			var s attrset.Set
			for b := 0; b < n; b++ {
				if rng.Intn(3) == 0 {
					s.Add(b)
				}
			}
			if !s.IsEmpty() {
				raw = append(raw, s)
			}
		}
		h := Simplify(raw)
		got := tr(t, h)
		want := bruteTransversals(h, n)
		if h.NumEdges() == 0 {
			want = attrset.Family{attrset.Empty()}
		}
		if !got.Equal(want) {
			t.Fatalf("iter %d: Tr = %v, want %v (edges %v)",
				iter, got.Strings(), want.Strings(), h.Edges().Strings())
		}
		// Every result is a minimal transversal.
		for _, tv := range got {
			if h.NumEdges() > 0 && !h.IsMinimalTransversal(tv) {
				t.Fatalf("non-minimal transversal %v", tv)
			}
		}
	}
}

// TestNihilpotence: Tr(Tr(H)) = H for simple hypergraphs (Berge), the
// property the TANE→Armstrong bridge relies on (paper §5.1).
func TestNihilpotence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(6)
		var raw attrset.Family
		for e := 0; e < 1+rng.Intn(4); e++ {
			var s attrset.Set
			for b := 0; b < n; b++ {
				if rng.Intn(2) == 0 {
					s.Add(b)
				}
			}
			if !s.IsEmpty() {
				raw = append(raw, s)
			}
		}
		if len(raw) == 0 {
			continue
		}
		h := Simplify(raw)
		if h.NumEdges() == 0 {
			continue
		}
		t1, err := h.Transversal(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		t2, err := t1.Transversal(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !t2.Edges().Equal(h.Edges()) {
			t.Fatalf("Tr(Tr(H)) = %v, want %v", t2.Edges().Strings(), h.Edges().Strings())
		}
	}
}

func TestCancellation(t *testing.T) {
	h := mustNew(t, "AB", "CD", "EF", "GH")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.MinimalTransversals(ctx); err == nil {
		t.Error("expected cancellation error")
	}
}

// Edges returns the edges in canonical order. The caller must not modify
// the returned family.
func (h *Hypergraph) Edges() attrset.Family { return h.edges }

// NumEdges returns the number of edges.
func (h *Hypergraph) NumEdges() int { return len(h.edges) }

// Transversal computes Tr(H) and verifies the result is itself simple,
// returning it as a hypergraph. Useful with the nihilpotence property
// Tr(Tr(H)) = H.
func (h *Hypergraph) Transversal(ctx context.Context) (*Hypergraph, error) {
	tr, err := h.MinimalTransversals(ctx)
	if err != nil {
		return nil, err
	}
	if len(tr) == 1 && tr[0].IsEmpty() {
		// Tr of the edgeless hypergraph; {∅} is not a simple hypergraph,
		// and Tr({∅}-like input) cannot occur since New rejects it. The
		// edgeless hypergraph is its own fixed point's dual: Tr(∅) = {∅}
		// and Tr of that is undefined — return the edgeless hypergraph.
		return &Hypergraph{}, nil
	}
	return New(tr)
}
