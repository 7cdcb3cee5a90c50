// Package fastfds implements a depth-first, heuristic-driven miner for
// minimal functional dependencies over difference sets — the approach of
// FastFDs (Wyss, Giannella, Robertson, DaWaK 2001), which builds directly
// on Dep-Miner's agree-set machinery and is the natural "further work"
// successor of the paper this repository reproduces.
//
// Where Dep-Miner computes lhs(dep(r),A) as the minimal transversals of
// the hypergraph cmax(dep(r),A) with a levelwise Apriori search, FastFDs
// searches the same space depth-first over the *difference sets modulo A*:
//
//	D_A = { E \ {A} | E ∈ cmax(dep(r),A) }
//
// A minimal cover of D_A (a minimal attribute set intersecting every
// member) is exactly a non-trivial minimal LHS for A. The DFS orders
// attributes by how many remaining difference sets they cover (ties by
// index), branches on one attribute at a time, and prunes when no ordered
// attribute can cover the remaining sets. The levelwise search can stall
// on wide candidate levels; the DFS's memory use is bounded by the search
// depth instead.
//
// The package is step 3 of the Dep-Miner pipeline and nothing else:
// internal/core runs steps 1–2 (agree sets, then maximal sets) exactly as
// for Dep-Miner and hands Covers the cmax(dep(r),A) families, so the two
// miners share everything up to the lhs step — making FastFDs both an
// extension and a cross-validation oracle for the transversal code.
package fastfds

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/guard"
)

// Covers computes, for every attribute A in index order, the non-trivial
// minimal left-hand sides of A: the minimal covers of the difference sets
// modulo A built from cmax[A]. An attribute with no difference set is
// constant and gets {∅}; one whose cmax holds R\{A} gets no LHS at all.
// nodes counts the DFS tree nodes visited. On a governed cutoff — budget,
// deadline or an error injected at faultinject.FastFDsAttr — lhs holds the
// attributes finished before it, alongside the error.
func Covers(ctx context.Context, cmax []attrset.Family, b *guard.Budget) (lhs []attrset.Family, nodes int, err error) {
	lhs = make([]attrset.Family, 0, len(cmax))
	for a, sets := range cmax {
		if err := ctx.Err(); err != nil {
			return nil, nodes, fmt.Errorf("fastfds: cancelled: %w", err)
		}
		if ferr := faultinject.Fire(faultinject.FastFDsAttr); ferr != nil {
			return lhs, nodes, ferr
		}
		// Difference sets modulo A.
		diff := make(attrset.Family, 0, len(sets))
		empty := false
		for _, e := range sets {
			d := e.Without(a)
			if d.IsEmpty() {
				// max set R\{A}: nothing but A itself determines A.
				empty = true
				break
			}
			diff = append(diff, d)
		}
		switch {
		case empty:
			lhs = append(lhs, nil)
		case len(diff) == 0:
			// No difference set: every couple agrees on A, i.e. A is
			// constant; ∅ → A is the (unique) minimal FD.
			lhs = append(lhs, attrset.Family{attrset.Empty()})
		default:
			// Keep only ⊆-minimal difference sets: any cover of a set
			// also covers its supersets.
			covers, cerr := findCovers(diff.Minimal(), &nodes, b)
			if cerr != nil {
				return lhs, nodes, cerr
			}
			lhs = append(lhs, covers)
		}
	}
	return lhs, nodes, nil
}

// chargeEvery is how many DFS nodes accumulate between budget charges:
// coarse enough that an ungoverned run pays one pointer test per node,
// fine enough that an overrun is caught within ~one batch.
const chargeEvery = 1024

// searchState carries the per-attribute DFS context.
type searchState struct {
	diff    attrset.Family // minimal difference sets to cover
	out     attrset.Family
	nodes   *int
	budget  *guard.Budget
	pending int // nodes visited since the last budget charge
}

// findCovers returns all minimal covers of the difference-set family.
func findCovers(diff attrset.Family, nodes *int, b *guard.Budget) (attrset.Family, error) {
	st := &searchState{diff: diff, nodes: nodes, budget: b}
	// Initial ordering: attributes of the union, by descending cover
	// count (FastFDs' heuristic), ties by ascending index.
	var universe attrset.Set
	for _, d := range diff {
		universe = universe.Union(d)
	}
	order := orderByCoverage(universe.Attrs(), diff)
	uncovered := make([]int, len(diff))
	for i := range uncovered {
		uncovered[i] = i
	}
	err := st.dfs(attrset.Empty(), order, uncovered)
	if err == nil && st.budget != nil && st.pending > 0 {
		err = st.budget.Charge("fastfds", st.pending)
		st.pending = 0
	}
	if err != nil {
		return nil, err
	}
	st.out.Sort()
	return st.out, nil
}

// orderByCoverage sorts candidate attributes by how many of the given
// difference sets they cover, descending; ties broken by index. Attributes
// covering nothing are dropped.
func orderByCoverage(attrs []attrset.Attr, diff attrset.Family) []attrset.Attr {
	type ranked struct {
		a     attrset.Attr
		count int
	}
	rs := make([]ranked, 0, len(attrs))
	for _, a := range attrs {
		n := 0
		for _, d := range diff {
			if d.Contains(a) {
				n++
			}
		}
		if n > 0 {
			rs = append(rs, ranked{a, n})
		}
	}
	slices.SortFunc(rs, func(x, y ranked) int {
		if x.count != y.count {
			return y.count - x.count
		}
		return x.a - y.a
	})
	out := make([]attrset.Attr, len(rs))
	for i, r := range rs {
		out[i] = r.a
	}
	return out
}

// dfs explores extensions of path. order lists the attributes still
// allowed (in heuristic order); uncovered indexes st.diff members not yet
// intersected by path.
func (st *searchState) dfs(path attrset.Set, order []attrset.Attr, uncovered []int) error {
	*st.nodes++
	if st.budget != nil {
		st.pending++
		if st.pending >= chargeEvery {
			n := st.pending
			st.pending = 0
			if err := st.budget.Charge("fastfds", n); err != nil {
				return err
			}
		}
	}
	if len(uncovered) == 0 {
		if st.isMinimal(path) {
			st.out = append(st.out, path)
		}
		return nil
	}
	if len(order) == 0 {
		return nil // dead end: remaining sets cannot be covered
	}
	for i, a := range order {
		// Only attributes after a (in the current ordering) may extend
		// the branch — this makes each cover reachable exactly once per
		// ordering chain.
		rest := order[i+1:]
		next := make([]int, 0, len(uncovered))
		for _, di := range uncovered {
			if !st.diff[di].Contains(a) {
				next = append(next, di)
			}
		}
		if len(next) == len(uncovered) {
			continue // a covers nothing new; skip (it is dropped by reordering anyway)
		}
		// Re-rank the remaining attributes against the still-uncovered
		// sets (the FastFDs heuristic re-orders per node).
		reordered := orderByCoverageIdx(rest, st.diff, next)
		if err := st.dfs(path.With(a), reordered, next); err != nil {
			return err
		}
	}
	return nil
}

// orderByCoverageIdx ranks attrs by coverage of the indexed subset of
// diff.
func orderByCoverageIdx(attrs []attrset.Attr, diff attrset.Family, idx []int) []attrset.Attr {
	sub := make(attrset.Family, len(idx))
	for i, di := range idx {
		sub[i] = diff[di]
	}
	return orderByCoverage(attrs, sub)
}

// isMinimal reports whether every attribute of path covers some
// difference set that no other attribute of path covers.
func (st *searchState) isMinimal(path attrset.Set) bool {
	ok := true
	path.ForEach(func(a attrset.Attr) {
		reduced := path.Without(a)
		for _, d := range st.diff {
			if !d.Intersects(reduced) {
				return // removing a breaks coverage of d: a is needed
			}
		}
		ok = false // path \ {a} still covers everything
	})
	return ok
}
