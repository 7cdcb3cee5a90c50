package hypergraph

// Width differential tests: the levelwise kernel searched at one word
// and at attrset.Set's width gives the same families and charges the
// same levels, and TransversalsAll mixing both widths over one pool
// equals the sequential searches.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
)

// randomNarrow draws a simple hypergraph on up to 12 vertices scattered
// below 64; half of them use vertex 63, the last one-word vertex.
func randomNarrow(rng *rand.Rand) *Hypergraph {
	verts := rng.Perm(64)[:2+rng.Intn(11)]
	if rng.Intn(2) == 0 {
		verts[0] = 63
	}
	return randomOver(rng, verts)
}

// randomWide draws a simple hypergraph on up to 12 vertices scattered
// over all of attrset.Set's words, one of them at 64 or above.
func randomWide(rng *rand.Rand) *Hypergraph {
	verts := rng.Perm(attrset.MaxAttrs)[:2+rng.Intn(11)]
	verts[0] = 64 + rng.Intn(attrset.MaxAttrs-64)
	return randomOver(rng, verts)
}

// randomOver draws up to 8 edges over verts, each vertex in an edge with
// probability 1/3, and keeps the minimal non-empty ones.
func randomOver(rng *rand.Rand, verts []attrset.Attr) *Hypergraph {
	edges := make(attrset.Family, 1+rng.Intn(8))
	for i := range edges {
		for _, a := range verts {
			if rng.Intn(3) == 0 {
				edges[i].Add(a)
			}
		}
	}
	return Simplify(edges)
}

// chargedLevels runs search and returns its output, widened, and the
// width each level charged, read off the budget as the HypergraphLevel
// point fires just before each charge.
func chargedLevels[S candSet](t *testing.T, h *Hypergraph, s *frontier[S]) (attrset.Family, []int64) {
	t.Helper()
	b := guard.New(guard.Limits{})
	var marks []int64
	faultinject.Set(faultinject.HypergraphLevel, func() error {
		marks = append(marks, b.Used())
		return nil
	})
	defer faultinject.Reset()
	xs, err := levelwise(context.Background(), h, b, s)
	if err != nil {
		t.Fatal(err)
	}
	marks = append(marks, b.Used())
	widths := make([]int64, len(marks)-1)
	for i := range widths {
		widths[i] = marks[i+1] - marks[i]
	}
	out := make(attrset.Family, len(xs))
	for i, x := range xs {
		out[i] = widen(x)
	}
	return out, widths
}

// TestWidthsAgree searches random hypergraphs on vertices below 64 at
// both widths, each width reusing its own frontier across the whole
// sequence: the families and the per-level charges must match, and the
// family must equal the map-based reference search.
func TestWidthsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var sn frontier[narrow]
	var sw frontier[attrset.Set]
	for iter := 0; iter < 2000; iter++ {
		h := randomNarrow(rng)
		gotN, levelsN := chargedLevels(t, h, &sn)
		gotW, levelsW := chargedLevels(t, h, &sw)
		if !reflect.DeepEqual(gotN, gotW) {
			t.Fatalf("iter %d: one word %v, wide %v", iter, gotN.Strings(), gotW.Strings())
		}
		if !reflect.DeepEqual(levelsN, levelsW) {
			t.Fatalf("iter %d: level charges %v at one word, %v wide", iter, levelsN, levelsW)
		}
		if want := mapTransversals(h); !gotW.Equal(want) {
			t.Fatalf("iter %d: got %v, reference %v", iter, gotW.Strings(), want.Strings())
		}
	}
}

// TestTransversalsAllMixedWidths runs one TransversalsAll call over
// hypergraphs of both widths, so every worker's scratch serves searches
// at one word and at four: the output at Workers 1 and 2 equals the
// sequential searches, which equal the map-based reference search.
func TestTransversalsAllMixedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	hs := make([]*Hypergraph, 96)
	var wideCount int
	for i := range hs {
		h := randomNarrow(rng)
		if i%2 == 1 {
			h = randomWide(rng)
		}
		if h.Vertices().Max() >= 64 {
			wideCount++
		}
		hs[i] = h
	}
	if wideCount == 0 || wideCount == len(hs) {
		t.Fatalf("%d of %d hypergraphs wide: want both widths", wideCount, len(hs))
	}
	want := freshTransversals(t, hs)
	for i, h := range hs {
		if ref := mapTransversals(h); !want[i].Equal(ref) {
			t.Fatalf("hypergraph %d: got %v, reference %v", i, want[i].Strings(), ref.Strings())
		}
	}
	for _, workers := range []int{1, 2} {
		got, err := TransversalsAll(context.Background(), hs, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: TransversalsAll differs from the sequential searches", workers)
		}
	}
}

// TestCoverMatchesSerialEmission checks Cover's parallel emission over
// hypergraphs of both widths, edgeless ones included — an edgeless
// search runs at one word even for an attribute past 64, whose ∅ → A
// must still be emitted — against a serial loop over the sequential
// searches that skips each trivial {A}.
func TestCoverMatchesSerialEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	hs := make([]*Hypergraph, 80)
	for a := range hs {
		switch rng.Intn(3) {
		case 0:
			// nil: the edgeless shorthand, Tr = {∅}.
		case 1:
			hs[a] = randomNarrow(rng)
		default:
			hs[a] = randomWide(rng)
		}
	}
	var want fd.Cover
	for a, xs := range freshTransversals(t, hs) {
		for _, x := range xs {
			if x != attrset.Single(a) {
				want = append(want, fd.FD{LHS: x, RHS: a})
			}
		}
	}
	// This cover is below parallelEmitMin: the last case lowers it so
	// that two workers fill it.
	defer func(n int) { parallelEmitMin = n }(parallelEmitMin)
	for _, c := range []struct{ workers, min int }{{1, parallelEmitMin}, {2, parallelEmitMin}, {2, 0}} {
		parallelEmitMin = c.min
		got, err := Cover(context.Background(), hs, c.workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d, parallelEmitMin=%d: Cover differs from the serial emission", c.workers, c.min)
		}
	}
}
