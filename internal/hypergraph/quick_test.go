package hypergraph

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attrset"
)

// mapTransversals is the map-based levelwise search the sorted-slice
// kernel replaced — per-candidate cover allocations, a surviving hash
// set for the Apriori test, and hash-keyed prefix grouping. Kept here
// verbatim as the reference implementation for the property test.
func mapTransversals(h *Hypergraph) attrset.Family {
	if h.NumEdges() == 0 {
		return attrset.Family{attrset.Empty()}
	}
	ne := h.NumEdges()
	words := (ne + 63) / 64
	full := make([]uint64, words)
	for e := 0; e < ne; e++ {
		full[e>>6] |= 1 << uint(e&63)
	}
	vertexCover := make(map[attrset.Attr][]uint64)
	for e, edge := range h.Edges() {
		edge.ForEach(func(a attrset.Attr) {
			vc := vertexCover[a]
			if vc == nil {
				vc = make([]uint64, words)
				vertexCover[a] = vc
			}
			vc[e>>6] |= 1 << uint(e&63)
		})
	}
	type cand struct {
		set   attrset.Set
		cover []uint64
	}
	covers := func(c []uint64) bool {
		for i := range c {
			if c[i] != full[i] {
				return false
			}
		}
		return true
	}
	var level []cand
	h.Vertices().ForEach(func(a attrset.Attr) {
		level = append(level, cand{set: attrset.Single(a), cover: vertexCover[a]})
	})
	var out attrset.Family
	surviving := make(map[attrset.Set]struct{})
	for len(level) > 0 {
		var survivors []cand
		clear(surviving)
		for _, c := range level {
			if covers(c.cover) {
				out = append(out, c.set)
			} else {
				survivors = append(survivors, c)
				surviving[c.set] = struct{}{}
			}
		}
		byPrefix := make(map[attrset.Set][]cand)
		for _, c := range survivors {
			p := c.set.Without(c.set.Max())
			byPrefix[p] = append(byPrefix[p], c)
		}
		level = level[:0]
		for _, members := range byPrefix {
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					u := members[i].set.Union(members[j].set)
					if !mapApriori(u, surviving) {
						continue
					}
					cover := make([]uint64, words)
					for w := range cover {
						cover[w] = members[i].cover[w] | members[j].cover[w]
					}
					level = append(level, cand{set: u, cover: cover})
				}
			}
		}
	}
	out.Sort()
	return out
}

func mapApriori(cand attrset.Set, surviving map[attrset.Set]struct{}) bool {
	ok := true
	cand.ForEach(func(a attrset.Attr) {
		if _, in := surviving[cand.Without(a)]; !in {
			ok = false
		}
	})
	return ok
}

// TestQuickSortedLevelwiseMatchesMapReference pits the sorted-slice
// transversal search against the map-based implementation and the Berge
// oracle on random simple hypergraphs — including vertices in high
// attrset words, so the active-word bounding is exercised beyond word 0 —
// and checks its output is already in canonical order.
func TestQuickSortedLevelwiseMatchesMapReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(85))
	for iter := 0; iter < 120; iter++ {
		n := 2 + rng.Intn(7)
		shift := 0
		if iter%4 == 3 {
			shift = 60 + rng.Intn(10) // straddle the word-0/word-1 boundary
		}
		var edges attrset.Family
		for k := 1 + rng.Intn(5); k > 0; k-- {
			e := randEdge(rng, n)
			if shift > 0 {
				var sh attrset.Set
				e.ForEach(func(a attrset.Attr) { sh = sh.With(a + shift) })
				e = sh
			}
			edges = append(edges, e)
		}
		h := Simplify(edges)
		got, err := h.MinimalTransversals(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := mapTransversals(h)
		if !got.Equal(want) {
			t.Fatalf("edges %v: sorted kernel %v, map reference %v",
				h.Edges().Strings(), got.Strings(), want.Strings())
		}
		// The search emits canonical order by construction (no final
		// sort), so it must equal the sorted Berge oracle exactly.
		if !slices.IsSortedFunc(got, attrset.Set.Compare) {
			t.Fatalf("edges %v: output %v not in canonical order", h.Edges().Strings(), got.Strings())
		}
		berge, err := h.MinimalTransversalsBerge(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, berge) {
			t.Fatalf("edges %v: levelwise %v, Berge %v", h.Edges().Strings(), got.Strings(), berge.Strings())
		}
		for _, tr := range got {
			if h.NumEdges() > 0 && !h.IsMinimalTransversal(tr) {
				t.Fatalf("edges %v: %v is not a minimal transversal",
					h.Edges().Strings(), tr)
			}
		}
	}
}
