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
	"math/bits"
	"slices"

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
// transversal test is a word-wise comparison instead of an edge scan, made
// as the candidate is generated.
func (h *Hypergraph) MinimalTransversals(ctx context.Context) (attrset.Family, error) {
	return h.MinimalTransversalsGoverned(ctx, nil)
}

// MinimalTransversalsGoverned is MinimalTransversals under a resource
// budget: each candidate level charges its generated width — every
// candidate the join produced, the transversals it emitted at once
// included — against the budget, and passes a deadline checkpoint, so a
// combinatorial blow-up of the levelwise search is stopped within one
// level of crossing the limit. Only a level's non-transversals stay in
// the frontier, so the charge bounds the frontier from above.
//
// The search keeps no hash maps: a level is a lexicographically sorted
// slice of surviving non-transversals (the Apriori join generates
// candidates already in that order, so prefix groups are contiguous runs,
// and the subset test searches one smallest-vertex run, resuming where
// the previous test of the same run ended),
// and the per-candidate edge-cover bitmaps live in one arena per level
// instead of one allocation per candidate. The candidates are one word
// wide when every vertex is below 64 and attrset.Set wide otherwise, so a
// schema of at most 64 attributes pays for one word per set operation;
// the result is widened to attrset.Set on return, and the levels charged
// are the same at either width.
func (h *Hypergraph) MinimalTransversalsGoverned(ctx context.Context, b *guard.Budget) (attrset.Family, error) {
	return h.transversals(ctx, b, new(scratch))
}

// candSet is the type set of the search's candidates: narrow when every
// vertex of the hypergraph is below 64, attrset.Set otherwise. Go allows
// indexing and len on both, so one kernel source serves the two widths,
// and each array length is compiled as its own instantiation.
type candSet interface{ narrow | attrset.Set }

// narrow is an attribute set over the first 64 attributes.
type narrow [1]uint64

// frontier is the memory of one levelwise search at width S: the current
// and next levels of surviving non-transversals with their edge-cover
// arenas, the per-level smallest-vertex index, the Apriori lookups of the
// current join, and the emitted transversals. Each search truncates every buffer first, so nothing
// carries over from the search before.
type frontier[S candSet] struct {
	cands, nextCands []S
	arena, nextArena []uint64
	first            []int32
	looks            []lookup
	out              []S
}

// scratch holds one frontier per width. TransversalsAll and Cover keep
// one per worker and reuse it for every hypergraph that worker takes,
// whichever width its search runs at.
type scratch struct {
	narrow frontier[narrow]
	wide   frontier[attrset.Set]
}

// family is one hypergraph's minimal transversals at the width its search
// ran at: narrow when every vertex is below 64, wide otherwise. Either way
// it is in canonical order.
type family struct {
	narrow []narrow
	wide   attrset.Family
}

// search runs the levelwise search at the narrowest width holding h's
// vertices, over that width's frontier in s.
func (h *Hypergraph) search(ctx context.Context, b *guard.Budget, s *scratch) (family, error) {
	if h.Vertices().Max() < 64 {
		xs, err := levelwise(ctx, h, b, &s.narrow)
		return family{narrow: xs}, err
	}
	xs, err := levelwise(ctx, h, b, &s.wide)
	return family{wide: xs}, err
}

// transversals is search with its output widened to attrset.Set.
func (h *Hypergraph) transversals(ctx context.Context, b *guard.Budget, s *scratch) (attrset.Family, error) {
	f, err := h.search(ctx, b, s)
	if err != nil {
		return nil, err
	}
	return f.widen(), nil
}

// widen returns f as an attrset.Family, converting a narrow family.
func (f family) widen() attrset.Family {
	if f.narrow == nil {
		return f.wide
	}
	out := make(attrset.Family, len(f.narrow))
	for i, x := range f.narrow {
		out[i] = widen(x)
	}
	return out
}

// levelwise is the levelwise search over the buffers of s, with
// candidates of width S; every vertex of h must fit in S. Its output is
// an exact-size copy, so s may serve the next search at once.
//
// A level is generated in full by the previous level's join, but only
// its non-transversals are kept: a joined candidate whose cover is full
// is emitted on the spot, so no transversal is stored, compacted or read
// back. The output is still in canonical order without a sort: levels
// finish in ascending cardinality, and the join generates each level —
// hence its emissions — in lexicographic order, which is
// attrset.Set.Compare's order among sets of equal size.
func levelwise[S candSet](ctx context.Context, h *Hypergraph, b *guard.Budget, s *frontier[S]) ([]S, error) {
	if len(h.edges) == 0 {
		return make([]S, 1), nil // {∅}
	}
	ne := len(h.edges)
	words := (ne + 63) / 64
	full := make([]uint64, words)
	for e := 0; e < ne; e++ {
		full[e>>6] |= 1 << uint(e&63)
	}
	verts := h.Vertices()
	nv := verts.Max() + 1
	// vcArena[a*words:(a+1)*words] = bitmap of edges containing vertex a.
	vcArena := make([]uint64, nv*words)
	for e, edge := range h.edges {
		bit := uint64(1) << uint(e&63)
		for w, x := range edge {
			for ; x != 0; x &= x - 1 {
				a := w<<6 + bits.TrailingZeros64(x)
				vcArena[a*words+e>>6] |= bit
			}
		}
	}
	// covers reports whether c ∪ d is every edge; pass d = c for c alone.
	covers := func(c, d []uint64) bool {
		for i, w := range full {
			if c[i]|d[i] != w {
				return false
			}
		}
		return true
	}

	cands, arena := s.cands[:0], s.arena[:0]
	nextCands, nextArena := s.nextCands[:0], s.nextArena[:0]
	out := s.out[:0]
	first := slices.Grow(s.first[:0], nv+1)[:nv+1]
	looks := s.looks[:0]
	defer func() {
		s.cands, s.arena, s.nextCands, s.nextArena, s.first, s.looks, s.out = cands, arena, nextCands, nextArena, first, looks, out
	}()
	// L1: the vertices appearing in edges, as singletons — ascending
	// vertex order is lexicographic order for singletons. width counts the
	// level's generated candidates, emitted transversals included.
	width := 0
	for a := verts.Min(); a >= 0; a = verts.Next(a) {
		width++
		cover := vcArena[a*words : (a+1)*words]
		if covers(cover, cover) {
			out = append(out, single[S](a))
			continue
		}
		cands = append(cands, single[S](a))
		arena = append(arena, cover...)
	}

	for width > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hypergraph: transversal search cancelled: %w", err)
		}
		if err := faultinject.Fire(faultinject.HypergraphLevel); err != nil {
			return nil, err
		}
		if err := b.Charge("lhs", width); err != nil {
			return nil, err
		}
		// Survivors in lexicographic order have non-decreasing smallest
		// vertices: cands[first[v]:first[v+1]] are those whose smallest
		// vertex is v.
		k := 0
		for v := range first {
			for k < len(cands) && minOf(cands[k]) < v {
				k++
			}
			first[v] = int32(k)
		}
		// Apriori join over contiguous prefix runs: survivors sharing all
		// but their largest vertex are adjacent in lexicographic order,
		// and each joined candidate arises from exactly one (prefix,
		// pair), generated in lexicographic order again — so the next
		// level is sorted and duplicate-free by construction. Its cover
		// is the union of the parents' covers: a full one is emitted, and
		// only a non-transversal's cover is written, ORed into the tail of
		// nextArena.
		width = 0
		nextCands = nextCands[:0]
		nextArena = nextArena[:0]
		for lo := 0; lo < len(cands); {
			prefix := without(cands[lo], maxOf(cands[lo]))
			m := minOf(prefix)
			hi := lo + 1
			for hi < len(cands) && without(cands[hi], maxOf(cands[hi])) == prefix {
				hi++
			}
			for i := lo; i < hi; i++ {
				ci := arena[i*words : (i+1)*words]
				// For u = P ∪ {x_i, x_j}, u∖{p} has smallest vertex m,
				// the smallest of P, unless p = m: then it is the second
				// vertex of P ∪ {x_i}, since x_j comes after both.
				looks = looks[:0]
				for p := m; p >= 0; p = next(prefix, p) {
					sm := m
					if p == m {
						sm = next(cands[i], m)
					}
					looks = append(looks, lookup{p: int32(p), at: first[sm], end: first[sm+1]})
				}
				for j := i + 1; j < hi; j++ {
					u := union(cands[i], cands[j])
					if !apriori(u, cands, looks) {
						continue
					}
					width++
					cj := arena[j*words : (j+1)*words]
					if covers(ci, cj) {
						out = append(out, u)
						continue
					}
					row := len(nextArena)
					nextArena = append(nextArena, ci...)
					cover := nextArena[row:]
					for w, c := range cj {
						cover[w] |= c
					}
					nextCands = append(nextCands, u)
				}
			}
			lo = hi
		}
		cands, nextCands = nextCands, cands
		arena, nextArena = nextArena, arena
	}
	res := make([]S, len(out))
	copy(res, out)
	return res, nil
}

// lookup is where apriori finds u∖{p} for one prefix vertex p:
// somewhere in surviving[at:end], the survivors sharing its smallest
// vertex. For a fixed x_i, u∖{p} grows with x_j, so each lookup resumes
// at the at where the previous one ended.
type lookup struct{ p, at, end int32 }

// apriori reports whether every (|u|-1)-subset of the joined candidate
// u = P ∪ {x_i, x_j} is a surviving non-transversal. Any subset that was
// emitted as a minimal transversal, or never generated, disqualifies u:
// its supersets cannot be minimal transversals (or were already pruned).
//
// u∖{x_j} and u∖{x_i} are the join's own parents, which survive by
// construction, so only the subsets u∖{p} for p ∈ P are looked up, one
// per entry of looks.
func apriori[S candSet](u S, surviving []S, looks []lookup) bool {
	for k := range looks {
		l := &looks[k]
		sub := without(u, int(l.p))
		at := seek(surviving, int(l.at), int(l.end), sub)
		l.at = int32(at)
		if at == int(l.end) || surviving[at] != sub {
			return false
		}
	}
	return true
}

// seek returns the first index in [lo, hi) of the lexicographically
// sorted s whose set is not below sub, or hi. It gallops from lo before
// it bisects, so a lookup just past the previous one costs a few steps.
func seek[S candSet](s []S, lo, hi int, sub S) int {
	if lo == hi || lexCmp(s[lo], sub) >= 0 {
		return lo
	}
	step := 1
	for lo+step < hi && lexCmp(s[lo+step], sub) < 0 {
		lo += step
		step <<= 1
	}
	// s[lo] is below sub; s[lo+step], if in range, is not.
	lo, hi = lo+1, min(lo+step, hi)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lexCmp(s[mid], sub) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// The set operations of the kernel, at width S. They mirror the
// attrset.Set methods of the same names; a vertex passed in must fit in S.

func single[S candSet](a attrset.Attr) S {
	var s S
	s[a>>6] = 1 << uint(a&63)
	return s
}

func without[S candSet](s S, a attrset.Attr) S {
	s[a>>6] &^= 1 << uint(a&63)
	return s
}

func union[S candSet](a, b S) S {
	for w := 0; w < len(a); w++ {
		a[w] |= b[w]
	}
	return a
}

// minOf returns the smallest vertex of s, or -1 if s is empty.
func minOf[S candSet](s S) attrset.Attr {
	for w := 0; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}

// maxOf returns the largest vertex of s, or -1 if s is empty.
func maxOf[S candSet](s S) attrset.Attr {
	for w := len(s) - 1; w >= 0; w-- {
		if s[w] != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(s[w])
		}
	}
	return -1
}

// next returns the smallest vertex of s above a ≥ 0, or -1 if none is.
func next[S candSet](s S, a attrset.Attr) attrset.Attr {
	a++
	for w := a >> 6; w < len(s); w++ {
		x := s[w]
		if w == a>>6 {
			x &= ^uint64(0) << uint(a&63)
		}
		if x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// lexCmp orders equal-cardinality sets lexicographically by element
// sequence: the set containing the smallest element of the symmetric
// difference sorts first. (For sets of the same size this coincides with
// attrset.CompareLex; proper-prefix cases cannot arise.)
func lexCmp[S candSet](a, b S) int {
	for w := 0; w < len(a); w++ {
		if d := a[w] ^ b[w]; d != 0 {
			if a[w]&(d&-d) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// widen returns s as an attrset.Set.
func widen[S candSet](s S) attrset.Set {
	var t attrset.Set
	for w := 0; w < len(s); w++ {
		t[w] = s[w]
	}
	return t
}
