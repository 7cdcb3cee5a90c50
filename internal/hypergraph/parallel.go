package hypergraph

import (
	"context"

	"repro/internal/attrset"
	"repro/internal/guard"
	"repro/internal/pool"
)

// TransversalsAll computes the minimal transversals of every hypergraph
// in hs concurrently — one task per hypergraph, distributed over a pool
// of workers (0 = runtime.GOMAXPROCS(0), 1 = sequential reference path).
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
// in-flight level charges its frontier width against the same pool, so
// the combined memory footprint of the concurrent searches is what the
// budget bounds. Each worker keeps one search scratch (candidate levels,
// cover arenas, output buffer) and reuses it for every hypergraph it
// takes, so the frontier is allocated once per worker, not once per
// attribute. Panics inside a search are contained at the pool's task
// boundary and surface as a *guard.PanicError.
func TransversalsAll(ctx context.Context, hs []*Hypergraph, workers int, b *guard.Budget) ([]attrset.Family, error) {
	out := make([]attrset.Family, len(hs))
	scratches := make([]scratch, pool.Resolve(workers))
	err := pool.Run(ctx, workers, len(hs), func(taskCtx context.Context, w, i int) error {
		h := hs[i]
		if h == nil {
			h = &Hypergraph{}
		}
		tr, err := h.transversals(taskCtx, b, &scratches[w])
		if err != nil {
			return err
		}
		out[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
