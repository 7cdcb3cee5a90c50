// Package hypergraph implements simple hypergraphs over attribute sets and
// the levelwise minimal-transversal algorithm of the paper (§3.3,
// Algorithm 5 LEFT_HAND_SIDE), with candidate generation adapted from
// Apriori-gen (Agrawal & Srikant 1994).
//
// A simple hypergraph H over vertex set R is a family of non-empty,
// pairwise ⊆-incomparable edges. A transversal T intersects every edge;
// Tr(H) is the family of minimal transversals. The connection to FD
// discovery: Tr(cmax(dep(r),A)) = lhs(dep(r),A), and by the nihilpotence
// property Tr(Tr(H)) = H for simple hypergraphs (Berge), which the
// maxsets tests use in the opposite direction to recover maximal sets
// from a cover.
//
// Conventions for degenerate cases (consistent with the set definitions):
//   - H with no edges: every set is a transversal, so Tr(H) = {∅}.
//   - H containing the empty edge is not simple and is rejected by New.
package hypergraph

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/guard"
)

// ErrNotSimple is returned when edges do not form a simple hypergraph.
var ErrNotSimple = errors.New("hypergraph: edges must be non-empty and ⊆-incomparable")

// Hypergraph is a simple hypergraph: a set of ⊆-incomparable non-empty
// edges over attribute vertices.
type Hypergraph struct {
	edges attrset.Family
}

// New builds a simple hypergraph from the given edges, after deduplication.
// It returns ErrNotSimple if any edge is empty or contained in another.
func New(edges attrset.Family) (*Hypergraph, error) {
	d := edges.Dedup()
	for i, e := range d {
		if e.IsEmpty() {
			return nil, fmt.Errorf("%w: empty edge", ErrNotSimple)
		}
		for j, f := range d {
			if i != j && e.SubsetOf(f) {
				return nil, fmt.Errorf("%w: %v ⊆ %v", ErrNotSimple, e, f)
			}
		}
	}
	d.Sort()
	return &Hypergraph{edges: d}, nil
}

// Simplify builds a simple hypergraph from arbitrary edges by dropping
// empty edges and non-minimal edges (keeping Min⊆). Transversals are
// preserved: a transversal of the minimal edges hits every superset edge
// too. This is the standard preparation when edges come from raw data.
func Simplify(edges attrset.Family) *Hypergraph {
	var nonEmpty attrset.Family
	for _, e := range edges {
		if !e.IsEmpty() {
			nonEmpty = append(nonEmpty, e)
		}
	}
	return &Hypergraph{edges: nonEmpty.Minimal()}
}

// Unchecked wraps edges that are simple by construction — non-empty,
// pairwise ⊆-incomparable, duplicate-free and in canonical order — and
// checks none of it. The caller owns the precondition; the cmax families
// of maxsets.Compute meet it, so the Dep-Miner pipeline builds its
// hypergraphs with Unchecked instead of paying Simplify's Min⊆ pass.
func Unchecked(edges attrset.Family) *Hypergraph { return &Hypergraph{edges: edges} }

// Edges returns the edges in canonical order. The caller must not modify
// the returned family.
func (h *Hypergraph) Edges() attrset.Family { return h.edges }

// NumEdges returns the number of edges.
func (h *Hypergraph) NumEdges() int { return len(h.edges) }

// Vertices returns the union of all edges.
func (h *Hypergraph) Vertices() attrset.Set {
	var v attrset.Set
	for _, e := range h.edges {
		v = v.Union(e)
	}
	return v
}

// IsTransversal reports whether t intersects every edge.
func (h *Hypergraph) IsTransversal(t attrset.Set) bool {
	for _, e := range h.edges {
		if !t.Intersects(e) {
			return false
		}
	}
	return true
}

// IsMinimalTransversal reports whether t is a transversal and no proper
// subset of t is one (equivalently, removing any single vertex of t breaks
// some edge).
func (h *Hypergraph) IsMinimalTransversal(t attrset.Set) bool {
	if !h.IsTransversal(t) {
		return false
	}
	minimal := true
	t.ForEach(func(a attrset.Attr) {
		if h.IsTransversal(t.Without(a)) {
			minimal = false
		}
	})
	return minimal
}

// MinimalTransversals computes Tr(H) with the paper's levelwise search:
// level i holds the candidate i-sets; candidates that are transversals are
// emitted and removed; the next level is generated Apriori-style from the
// surviving non-transversals (join on the first i−1 elements, then prune
// candidates having a non-surviving i-subset). Context cancellation aborts
// between levels and returns the error.
//
// Each candidate carries a bitmap of the edges it already hits; the join
// ORs the parents' bitmaps (the candidate is exactly their union), so the
// transversal test is a word-wise comparison instead of an edge scan.
func (h *Hypergraph) MinimalTransversals(ctx context.Context) (attrset.Family, error) {
	return h.MinimalTransversalsGoverned(ctx, nil)
}

// MinimalTransversalsGoverned is MinimalTransversals under a resource
// budget: each candidate level charges its width — the frontier size,
// which is exactly the search's memory footprint — against the budget,
// and passes a deadline checkpoint, so a combinatorial blow-up of the
// levelwise search is stopped within one level of crossing the limit.
//
// The search keeps no hash maps: a level is a lexicographically sorted
// candidate slice (the Apriori join emits candidates already in that
// order, so prefix groups are contiguous runs and the subset test is a
// binary search), and the per-candidate edge-cover bitmaps live in one
// arena per level instead of one allocation per candidate. Set operations
// are bounded by the hypergraph's active word count — the number of
// attrset words its vertices actually occupy — so a 10-attribute schema
// pays for 64 bits per operation, not attrset.MaxAttrs.
func (h *Hypergraph) MinimalTransversalsGoverned(ctx context.Context, b *guard.Budget) (attrset.Family, error) {
	return h.transversals(ctx, b, new(scratch))
}

// scratch is the frontier memory of one levelwise search: the current
// and next candidate levels with their edge-cover arenas, and the emitted
// transversals. TransversalsAll keeps one per worker and reuses it across
// that worker's searches; each search truncates every buffer first, so
// nothing carries over.
type scratch struct {
	cands, nextCands []attrset.Set
	arena, nextArena []uint64
	out              attrset.Family
}

// transversals is the levelwise search over the buffers of s. Its output
// is an exact-size copy, so s may serve the next search at once.
//
// The output is in canonical order without a sort: levels run in
// ascending cardinality, and each level's candidates — hence the
// transversals emitted from it — are in lexicographic order, which is
// attrset.Set.Compare's order among sets of equal size.
func (h *Hypergraph) transversals(ctx context.Context, b *guard.Budget, s *scratch) (attrset.Family, error) {
	if len(h.edges) == 0 {
		return attrset.Family{attrset.Empty()}, nil
	}
	ne := len(h.edges)
	words := (ne + 63) / 64
	full := make([]uint64, words)
	for e := 0; e < ne; e++ {
		full[e>>6] |= 1 << uint(e&63)
	}
	verts := h.Vertices()
	// aw is the active attrset word count: trailing all-zero words of any
	// candidate set are skipped by every union/compare below.
	aw := verts.Max()>>6 + 1
	// vcArena[a*words:(a+1)*words] = bitmap of edges containing vertex a.
	vcArena := make([]uint64, (verts.Max()+1)*words)
	for e, edge := range h.edges {
		edge.ForEach(func(a attrset.Attr) {
			vcArena[a*words+e>>6] |= 1 << uint(e&63)
		})
	}
	covers := func(c []uint64) bool {
		for i, w := range full {
			if c[i] != w {
				return false
			}
		}
		return true
	}

	// L1: the vertices appearing in edges, as singletons — ascending
	// vertex order is lexicographic order for singletons.
	cands, arena := s.cands[:0], s.arena[:0]
	nextCands, nextArena := s.nextCands[:0], s.nextArena[:0]
	out := s.out[:0]
	defer func() {
		s.cands, s.arena, s.nextCands, s.nextArena, s.out = cands, arena, nextCands, nextArena, out
	}()
	verts.ForEach(func(a attrset.Attr) {
		cands = append(cands, attrset.Single(a))
		arena = append(arena, vcArena[a*words:(a+1)*words]...)
	})

	for len(cands) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hypergraph: transversal search cancelled: %w", err)
		}
		if err := faultinject.Fire(faultinject.HypergraphLevel); err != nil {
			return nil, err
		}
		if err := b.Charge("lhs", len(cands)); err != nil {
			return nil, err
		}
		// Emit transversals; compact the surviving non-transversals (and
		// their covers) to the front in place, preserving sorted order.
		keep := 0
		for i, c := range cands {
			cover := arena[i*words : (i+1)*words]
			if covers(cover) {
				out = append(out, c)
				continue
			}
			cands[keep] = c
			copy(arena[keep*words:(keep+1)*words], cover)
			keep++
		}
		cands = cands[:keep]
		// Apriori join over contiguous prefix runs: survivors sharing all
		// but their largest vertex are adjacent in lexicographic order,
		// and each joined candidate arises from exactly one (prefix,
		// pair), emitted in lexicographic order again — so the next level
		// is sorted and duplicate-free by construction.
		nextCands = nextCands[:0]
		nextArena = nextArena[:0]
		for lo := 0; lo < keep; {
			prefix := cands[lo].Without(cands[lo].Max())
			hi := lo + 1
			for hi < keep && cands[hi].Without(cands[hi].Max()) == prefix {
				hi++
			}
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					u := unionW(cands[i], cands[j], aw)
					if !apriori(u, cands, aw) {
						continue
					}
					nextCands = append(nextCands, u)
					ci := arena[i*words : (i+1)*words]
					cj := arena[j*words : (j+1)*words]
					for w := 0; w < words; w++ {
						nextArena = append(nextArena, ci[w]|cj[w])
					}
				}
			}
			lo = hi
		}
		cands, nextCands = nextCands, cands
		arena, nextArena = nextArena, arena
	}
	res := make(attrset.Family, len(out))
	copy(res, out)
	return res, nil
}

// unionW returns a ∪ b touching only the first aw words; the rest are
// zero for every set in a transversal search over aw active words.
func unionW(a, b attrset.Set, aw int) attrset.Set {
	var u attrset.Set
	for w := 0; w < aw; w++ {
		u[w] = a[w] | b[w]
	}
	return u
}

// lexCmpW orders equal-cardinality sets lexicographically by element
// sequence, touching only the first aw words: the set containing the
// smallest element of the symmetric difference sorts first. (For sets of
// the same size this coincides with attrset.CompareLex; proper-prefix
// cases cannot arise.)
func lexCmpW(a, b attrset.Set, aw int) int {
	for w := 0; w < aw; w++ {
		if d := a[w] ^ b[w]; d != 0 {
			if a[w]&(d&-d) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// apriori reports whether every (|cand|-1)-subset of cand is a surviving
// non-transversal, by binary search in the sorted survivor slice. Any
// subset that was emitted as a minimal transversal, or never generated,
// disqualifies cand: its supersets cannot be minimal transversals (or
// were already pruned).
func apriori(cand attrset.Set, surviving []attrset.Set, aw int) bool {
	for a := cand.Min(); a >= 0; a = cand.Next(a) {
		sub := cand.Without(a)
		lo, hi := 0, len(surviving)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if lexCmpW(surviving[mid], sub, aw) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(surviving) || surviving[lo] != sub {
			return false
		}
	}
	return true
}

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
