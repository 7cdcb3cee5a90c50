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
// The package reuses the stripped-partition agree-set computation of
// internal/agree, so the two miners share everything up to the lhs step —
// making FastFDs both an extension and a cross-validation oracle for the
// transversal code.
package fastfds

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/maxsets"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Options configure a FastFDs run.
type Options struct {
	// Budget governs the run: the agree-set computation charges couples
	// and sets produced, and the DFS charges nodes visited. On overrun
	// the partial Result (covers of the attributes completed, Partial =
	// true) is returned with the guard error. nil means ungoverned.
	Budget *guard.Budget
}

// Result is the outcome of a FastFDs run.
type Result struct {
	// FDs is the canonical cover of minimal non-trivial FDs, sorted.
	FDs fd.Cover
	// Nodes counts DFS tree nodes visited across all attributes.
	Nodes int
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
	// Partial reports that the search stopped early on a budget or
	// deadline overrun (or a contained panic): FDs holds only the RHS
	// attributes fully searched before the cutoff. Always accompanied by
	// a non-nil error.
	Partial bool
}

// Run mines all minimal non-trivial FDs of the relation. Panics anywhere
// in the miner are contained at this boundary and surface as a
// *guard.PanicError.
func Run(ctx context.Context, r *relation.Relation, opts Options) (res *Result, err error) {
	start := time.Now()
	res = &Result{}
	defer func() {
		if p := recover(); p != nil {
			res.Partial = true
			res.Elapsed = time.Since(start)
			err = guard.NewPanicError("fastfds", p)
		}
	}()
	db := partition.NewDatabase(r)
	agr, aerr := agree.Identifiers(ctx, db, agree.Options{Budget: opts.Budget})
	if aerr != nil {
		if guard.Governed(aerr) {
			res.Partial = true
			res.Elapsed = time.Since(start)
			return res, aerr
		}
		return nil, aerr
	}
	inner, derr := FromAgreeSets(ctx, agr.Sets, r.Arity(), opts)
	if inner != nil {
		inner.Elapsed = time.Since(start)
		res = inner
	}
	return res, derr
}

// FromAgreeSets mines the cover from precomputed agree sets.
func FromAgreeSets(ctx context.Context, agreeSets attrset.Family, arity int, opts Options) (*Result, error) {
	ms := maxsets.Compute(agreeSets, arity)
	res := &Result{}
	for a := 0; a < arity; a++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fastfds: cancelled: %w", err)
		}
		if ferr := faultinject.Fire(faultinject.FastFDsAttr); ferr != nil {
			return failFastFDs(res, ferr)
		}
		// Difference sets modulo A.
		diff := make(attrset.Family, 0, len(ms.CMax[a]))
		empty := false
		for _, e := range ms.CMax[a] {
			d := e.Without(a)
			if d.IsEmpty() {
				// max set R\{A}: nothing but A itself determines A.
				empty = true
				break
			}
			diff = append(diff, d)
		}
		if empty {
			continue
		}
		if len(diff) == 0 {
			// No difference set: every couple agrees on A, i.e. A is
			// constant; ∅ → A is the (unique) minimal FD.
			res.FDs = append(res.FDs, fd.FD{LHS: attrset.Empty(), RHS: a})
			continue
		}
		// Keep only ⊆-minimal difference sets: any cover of a set also
		// covers its supersets.
		diff = diff.Minimal()
		covers, cerr := findCovers(ctx, diff, arity, &res.Nodes, opts.Budget)
		if cerr != nil {
			return failFastFDs(res, cerr)
		}
		for _, x := range covers {
			res.FDs = append(res.FDs, fd.FD{LHS: x, RHS: a})
		}
	}
	res.FDs.Sort()
	return res, nil
}

// failFastFDs finalises an interrupted search: governed errors keep the
// FDs mined so far as a partial result, anything else drops them.
func failFastFDs(res *Result, err error) (*Result, error) {
	if !guard.Governed(err) {
		return nil, err
	}
	res.Partial = true
	res.FDs.Sort()
	return res, err
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
func findCovers(ctx context.Context, diff attrset.Family, arity int, nodes *int, b *guard.Budget) (attrset.Family, error) {
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
