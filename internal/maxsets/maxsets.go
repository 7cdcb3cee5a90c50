// Package maxsets derives maximal sets and their complements from agree
// sets (paper §3.2, Algorithm 4 CMAX_SET).
//
// A maximal set for attribute A is a largest attribute set that does not
// determine A: max(dep(r),A) = Max⊆{X ⊆ R | r ⊭ X → A}. Lemma 3
// characterises it from agree sets as Max⊆{X ∈ ag(r) | A ∉ X}. The
// complements cmax(dep(r),A) = {R \ X | X ∈ max(dep(r),A)} form a simple
// hypergraph whose minimal transversals are the LHSs of the minimal FDs
// with right-hand side A.
//
// MAX(dep(r)) = ⋃_A max(dep(r),A) equals GEN(dep(r)), the intersection
// generators of the closed-set family (Mannila & Räihä), which is what the
// Armstrong-relation construction consumes.
package maxsets

import (
	"slices"

	"repro/internal/attrset"
)

// Result holds, per attribute A of a schema of Arity attributes, the
// maximal sets and their complements.
type Result struct {
	Arity int
	// Max[a] is max(dep(r), a) in canonical order.
	Max []attrset.Family
	// CMax[a] is cmax(dep(r), a) = complements of Max[a], in canonical
	// order. Each CMax[a] is a simple hypergraph by construction: Max[a]
	// is an antichain, and every edge contains a.
	CMax []attrset.Family
	// all is MAX(dep(r)) in canonical order, collected alongside Max.
	all attrset.Family
}

// Compute runs CMAX_SET: from the agree sets of a relation over arity
// attributes, derive max(dep(r),A) and cmax(dep(r),A) for every A.
//
// Following Lemma 3 (amended as in internal/agree to handle the empty
// agree set): max(dep(r),A) = Max⊆{X ∈ ag(r) | A ∉ X}, including ∅ when
// ∅ ∈ ag(r). When ag(r) has no candidate at all for A (every couple of
// tuples agrees on A), max(dep(r),A) is empty and so is cmax — the
// levelwise search then correctly derives ∅ → A (A is constant). The full
// schema R is never maximal for any A because A ∈ R — so even an ag(r)
// computed under multiset semantics (where duplicate tuples contribute R)
// cannot corrupt the result; internal/agree collapses duplicates anyway.
//
// All attributes are served by one pass over ag(r) in descending
// canonical order. For each agree set X, let I be the intersection of the
// maximal sets found so far that strictly contain X (R if there is none);
// then X ∈ max(dep(r),A) exactly for A ∈ I \ X. A strict superset of X
// that avoids A lies inside some maximal set for A, which is larger than
// X and so was found before it — intersecting the maximal sets suffices.
// The pass costs |ag(r)|·|MAX(dep(r))| subset tests. Complementation
// reverses the canonical order within R, so every output family is
// filled in canonical order without a sort.
func Compute(agreeSets attrset.Family, arity int) *Result {
	if !canonical(agreeSets) {
		agreeSets = agreeSets.Dedup()
		agreeSets.Sort()
	}
	universe := attrset.Universe(arity)
	// all collects MAX(dep(r)) in descending canonical order; maxFor[i]
	// holds the attributes all[i] is maximal for.
	all := make(attrset.Family, 0, len(agreeSets))
	maxFor := make([]attrset.Set, 0, len(agreeSets))
	count := make([]int, arity)
	for i := len(agreeSets) - 1; i >= 0; i-- {
		x := agreeSets[i]
		d := universe.Diff(x)
		for _, y := range all {
			if x.ProperSubsetOf(y) {
				if d = d.Intersect(y); d.IsEmpty() {
					break
				}
			}
		}
		if d.IsEmpty() {
			continue
		}
		all = append(all, x)
		maxFor = append(maxFor, d)
		d.ForEach(func(a attrset.Attr) { count[a]++ })
	}

	res := &Result{
		Arity: arity,
		Max:   make([]attrset.Family, arity),
		CMax:  make([]attrset.Family, arity),
	}
	total := 0
	for _, c := range count {
		total += c
	}
	maxArena := make([]attrset.Set, total)
	cmaxArena := make([]attrset.Set, total)
	off := 0
	for a, c := range count {
		res.Max[a] = maxArena[off : off+c : off+c]
		res.CMax[a] = cmaxArena[off : off+c : off+c]
		off += c
	}
	// all is in descending order, so Max[a] fills from its end and CMax[a]
	// (complements reverse the order) from its front; count[a] runs down
	// as the cursor.
	for i, x := range all {
		cx := x.Complement(arity)
		maxFor[i].ForEach(func(a attrset.Attr) {
			count[a]--
			res.Max[a][count[a]] = x
			res.CMax[a][len(res.CMax[a])-1-count[a]] = cx
		})
	}
	slices.Reverse(all)
	res.all = all
	return res
}

// canonical reports whether f is strictly increasing in canonical order,
// i.e. deduplicated and sorted.
func canonical(f attrset.Family) bool {
	for i := 1; i < len(f); i++ {
		if f[i-1].Compare(f[i]) >= 0 {
			return false
		}
	}
	return true
}

// AllMax returns MAX(dep(r)) = ⋃_A max(dep(r),A), deduplicated, in
// canonical order. This is the input of the Armstrong-relation
// construction (paper §4). The caller must not modify the returned
// family.
func (r *Result) AllMax() attrset.Family { return r.all }
