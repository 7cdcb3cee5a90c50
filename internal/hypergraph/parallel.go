package hypergraph

import (
	"context"

	"repro/internal/attrset"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/pool"
)

// TransversalsAll computes the minimal transversals of every hypergraph
// in hs concurrently — one task per hypergraph, distributed over a pool
// of workers (0 = runtime.GOMAXPROCS(0), 1 = sequential reference path).
// It is the attrset.Family boundary over the search Cover runs: each
// search takes its width from its own vertices, and its output is
// widened to attrset.Set after all searches finished.
//
// This is the parallel shape of the Dep-Miner pipeline's steps 3–4 (paper
// Fig. 1): the per-RHS-attribute searches Tr(cmax(dep(r),A)) are fully
// independent, so each runs as its own task. Results are written at the
// task's own index, which makes the output deterministic — byte-identical
// to calling MinimalTransversals sequentially in slice order — for any
// worker count and scheduling.
//
// A nil entry in hs denotes the edgeless hypergraph (Tr = {∅}), sparing
// callers an allocation for attributes with no cmax edges. Cancellation
// propagates into every in-flight levelwise search; the first error
// cancels the remaining tasks and is returned after all workers exit.
//
// The budget b (nil = ungoverned) is shared across all searches: every
// in-flight level charges its generated width against the same pool, so
// the budget bounds the combined work, and with it the memory, of the
// concurrent searches. Each worker keeps one search scratch (candidate
// levels, cover arenas, smallest-vertex index, output buffer, at each
// width) and reuses it for every hypergraph it takes, so the frontier is
// allocated once per worker, not once per attribute. Panics inside a
// search are contained at the pool's task boundary and surface as a
// *guard.PanicError.
func TransversalsAll(ctx context.Context, hs []*Hypergraph, workers int, b *guard.Budget) ([]attrset.Family, error) {
	fams, err := searchAll(ctx, hs, workers, b)
	if err != nil {
		return nil, err
	}
	out := make([]attrset.Family, len(fams))
	for i, f := range fams {
		out[i] = f.widen()
	}
	return out, nil
}

// Cover is steps 3–4 of the Dep-Miner pipeline: the per-attribute
// searches of TransversalsAll, with hs[A] = cmax(dep(r),A), followed by
// FD_OUTPUT — every minimal transversal X ≠ {A} of hs[A] is the minimal
// non-trivial FD X → A. The searches keep their own width's sets until
// emission writes them into the cover. On any error, a governed cutoff
// included, Cover returns no FDs.
func Cover(ctx context.Context, hs []*Hypergraph, workers int, b *guard.Budget) (fd.Cover, error) {
	fams, err := searchAll(ctx, hs, workers, b)
	if err != nil {
		return nil, err
	}
	return emit(ctx, fams, workers)
}

// CoverOf is FD_OUTPUT alone over lhs[A] = lhs(dep(r),A), each family in
// canonical order: the emission pass of Cover, for LHS families found by
// another search (FastFDs). lhs may be shorter than the schema; only its
// attributes are emitted.
func CoverOf(ctx context.Context, lhs []attrset.Family, workers int) (fd.Cover, error) {
	fams := make([]family, len(lhs))
	for a, xs := range lhs {
		fams[a].wide = xs
	}
	return emit(ctx, fams, workers)
}

// searchAll runs h.search for every hypergraph in hs over the pool, one
// scratch per worker; see TransversalsAll.
func searchAll(ctx context.Context, hs []*Hypergraph, workers int, b *guard.Budget) ([]family, error) {
	out := make([]family, len(hs))
	scratches := make([]scratch, pool.Resolve(workers))
	err := pool.Run(ctx, workers, len(hs), func(taskCtx context.Context, w, i int) error {
		h := hs[i]
		if h == nil {
			h = &Hypergraph{}
		}
		f, err := h.search(taskCtx, b, &scratches[w])
		if err != nil {
			return err
		}
		out[i] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parallelEmitMin is the smallest cover emit fills over the pool. A
// smaller one takes microseconds to copy, less than starting and joining
// the workers, and a served discovery would wait on the scheduler for
// them beside the other requests' goroutines.
var parallelEmitMin = 1 << 12

// emit writes fams, fams[A] being attribute A's LHS family, into one
// cover: RHS-major, each family in its canonical order, the trivial {A}
// left out — fd.FD.Compare's order, so the cover needs no sort. It stays
// nil when there is nothing to emit. The cover is allocated once at its
// exact size, from the families' lengths; then one pool task per
// attribute fills that attribute's own range of it, so no serial pass
// copies the cover. A cover below parallelEmitMin FDs is filled inline
// on the calling goroutine instead. The pass is bounded by the cover it
// fills and runs to the end even if ctx ends: a cut short pass would
// leave zero FDs in the cover.
func emit(ctx context.Context, fams []family, workers int) (fd.Cover, error) {
	skip := make([]int, len(fams))
	off := make([]int, len(fams)+1)
	for a, f := range fams {
		n := len(f.wide)
		if f.narrow != nil {
			skip[a], n = trivialAt(f.narrow, a), len(f.narrow)
		} else {
			skip[a] = trivialAt(f.wide, a)
		}
		if skip[a] >= 0 {
			n--
		}
		off[a+1] = off[a] + n
	}
	if off[len(fams)] == 0 {
		return nil, nil
	}
	cover := make(fd.Cover, off[len(fams)])
	if len(cover) < parallelEmitMin {
		workers = 1
	}
	err := pool.Run(context.WithoutCancel(ctx), workers, len(fams), func(_ context.Context, _, a int) error {
		dst := cover[off[a]:off[a+1]]
		if f := fams[a]; f.narrow != nil {
			fill(dst, f.narrow, a, skip[a])
		} else {
			fill(dst, f.wide, a, skip[a])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cover, nil
}

// trivialAt returns the index of {a} in the canonical family xs, or -1.
// Canonical order puts ∅ and the singletons first, so the scan stops at
// the first set whose smallest and largest vertices differ.
func trivialAt[S candSet](xs []S, a attrset.Attr) int {
	var t S
	if a>>6 >= len(t) {
		return -1
	}
	t = single[S](a)
	for i, x := range xs {
		if x == t {
			return i
		}
		if minOf(x) != maxOf(x) {
			break
		}
	}
	return -1
}

// fill writes X → a for every X of xs but xs[skip] into dst, in order.
// dst is freshly allocated, so the LHS words beyond x's stay zero and
// only x's are written.
func fill[S candSet](dst fd.Cover, xs []S, a attrset.Attr, skip int) {
	k := 0
	for i, x := range xs {
		if i == skip {
			continue
		}
		d := &dst[k]
		for w := 0; w < len(x); w++ {
			d.LHS[w] = x[w]
		}
		d.RHS = a
		k++
	}
}
