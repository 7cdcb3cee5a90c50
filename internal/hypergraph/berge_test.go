package hypergraph

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/attrset"
)

// MinimalTransversalsBerge computes Tr(H) by Berge multiplication — the
// classical incremental algorithm the paper's levelwise search (Algorithm
// 5) replaces: process edges one at a time, maintaining the minimal
// transversals of the prefix hypergraph; a new edge E expands each
// current transversal T to {T ∪ {v} | v ∈ E} unless T already hits E,
// with ⊆-minimisation after each step.
//
// It is kept here as an independent oracle for the levelwise
// implementation and as the ablation baseline of DESIGN.md §5 (item 4):
// Berge multiplication explodes on intermediate results for some inputs
// where the levelwise search stays narrow, and vice versa.
func (h *Hypergraph) MinimalTransversalsBerge(ctx context.Context) (attrset.Family, error) {
	if len(h.edges) == 0 {
		return attrset.Family{attrset.Empty()}, nil
	}
	current := attrset.Family{attrset.Empty()}
	for _, edge := range h.edges {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hypergraph: berge multiplication cancelled: %w", err)
		}
		next := make(attrset.Family, 0, len(current))
		for _, t := range current {
			if t.Intersects(edge) {
				next = append(next, t)
				continue
			}
			edge.ForEach(func(v attrset.Attr) {
				next = append(next, t.With(v))
			})
		}
		current = next.Minimal()
	}
	current.Sort()
	return current, nil
}

// randEdge draws a random edge over n vertices (possibly empty).
func randEdge(rng *rand.Rand, n int) attrset.Set {
	var s attrset.Set
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			s.Add(v)
		}
	}
	return s
}

func TestBergePaperExample(t *testing.T) {
	h := mustNew(t, "AC", "ABD")
	got, err := h.MinimalTransversalsBerge(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sets("A", "BC", "CD")) {
		t.Errorf("Berge Tr = %v, want {A, BC, CD}", got.Strings())
	}
}

func TestBergeEdgeless(t *testing.T) {
	h := Simplify(nil)
	got, err := h.MinimalTransversalsBerge(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].IsEmpty() {
		t.Errorf("Tr(edgeless) = %v", got.Strings())
	}
}

// TestBergeMatchesLevelwise cross-validates the two independent
// transversal implementations on random simple hypergraphs.
func TestBergeMatchesLevelwise(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(8)
		fam := attrset.Family{}
		for e := 0; e < 1+rng.Intn(6); e++ {
			if one := randEdge(rng, n); !one.IsEmpty() {
				fam = append(fam, one)
			}
		}
		h := Simplify(fam)
		level := tr(t, h)
		bergeOut, err := h.MinimalTransversalsBerge(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !level.Equal(bergeOut) {
			t.Fatalf("iter %d: levelwise %v != berge %v (edges %v)",
				iter, level.Strings(), bergeOut.Strings(), h.Edges().Strings())
		}
	}
}

func TestBergeCancellation(t *testing.T) {
	h := mustNew(t, "AB", "CD")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.MinimalTransversalsBerge(ctx); err == nil {
		t.Error("expected cancellation error")
	}
}
