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
//
// The narrow cases (≤8 vertices, ≤5 edges) rarely reach level 4. The
// deep ones — up to 16 vertices and 30 small edges — have minimal
// transversals several levels deep. Only from level 4 on does a join
// prefix hold two or more vertices, so that the Apriori test makes more
// than one lookup per candidate (the join's two parents never are looked
// up) and a looked-up subset can keep the candidate's smallest vertex.
// Every fourth case of each kind straddles the word-0/word-1 boundary.
func TestQuickSortedLevelwiseMatchesMapReference(t *testing.T) {
	narrow := func(rng *rand.Rand, straddle bool) attrset.Family {
		n := 2 + rng.Intn(7)
		shift := 0
		if straddle {
			shift = 60 + rng.Intn(10)
		}
		var edges attrset.Family
		for k := 1 + rng.Intn(5); k > 0; k-- {
			var e attrset.Set
			randEdge(rng, n).ForEach(func(a attrset.Attr) { e = e.With(a + shift) })
			edges = append(edges, e)
		}
		return edges
	}
	deep := func(rng *rand.Rand, straddle bool) attrset.Family {
		n := 6 + rng.Intn(11)
		shift := 0
		if straddle {
			shift = 52 + rng.Intn(12)
		}
		var edges attrset.Family
		for k := 1 + rng.Intn(30); k > 0; k-- {
			var e attrset.Set
			for size := 2 + rng.Intn(3); size > 0; size-- {
				e = e.With(shift + rng.Intn(n))
			}
			edges = append(edges, e)
		}
		return edges
	}
	ctx := context.Background()
	for _, kind := range []struct {
		name     string
		cases    int
		seed     int64
		gen      func(rng *rand.Rand, straddle bool) attrset.Family
		minDepth int
	}{
		{"narrow", 120, 85, narrow, 1},
		// A 4-vertex transversal needs a join on a two-vertex prefix;
		// ask for one level more.
		{"deep", 150, 25, deep, 5},
	} {
		rng := rand.New(rand.NewSource(kind.seed))
		deepest := 0
		for iter := 0; iter < kind.cases; iter++ {
			h := Simplify(kind.gen(rng, iter%4 == 3))
			got, err := h.MinimalTransversals(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := mapTransversals(h)
			if !got.Equal(want) {
				t.Fatalf("%s, edges %v: sorted kernel %v, map reference %v",
					kind.name, h.Edges().Strings(), got.Strings(), want.Strings())
			}
			// The search emits canonical order by construction (no final
			// sort), so it must equal the sorted Berge oracle exactly.
			if !slices.IsSortedFunc(got, attrset.Set.Compare) {
				t.Fatalf("%s, edges %v: output %v not in canonical order", kind.name, h.Edges().Strings(), got.Strings())
			}
			berge, err := h.MinimalTransversalsBerge(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, berge) {
				t.Fatalf("%s, edges %v: levelwise %v, Berge %v", kind.name, h.Edges().Strings(), got.Strings(), berge.Strings())
			}
			for _, tr := range got {
				if h.NumEdges() > 0 && !h.IsMinimalTransversal(tr) {
					t.Fatalf("%s, edges %v: %v is not a minimal transversal",
						kind.name, h.Edges().Strings(), tr)
				}
				deepest = max(deepest, tr.Len())
			}
		}
		if deepest < kind.minDepth {
			t.Fatalf("%s: deepest minimal transversal has %d vertices, want ≥ %d", kind.name, deepest, kind.minDepth)
		}
	}
}
