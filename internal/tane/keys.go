package tane

import (
	"context"
	"time"

	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/pstore"
)

// KeysOptions configure a candidate-key discovery run.
type KeysOptions struct {
	// Workers caps the worker pool computing each level's partition
	// products: 0 = all cores, 1 = the sequential reference path. The
	// discovered keys are identical for every value.
	Workers int
	// MaxPartitionBytes bounds the resident byte footprint of the
	// materialised partitions (0 = unbounded); over the cap partitions
	// are evicted and recomputed on demand. See pstore.
	MaxPartitionBytes int64
	// Budget governs the levelwise search: each lattice level charges its
	// width (the number of materialised partitions) under the "keys"
	// phase and every partition materialisation charges its byte
	// footprint. On overrun the keys found so far are returned as a
	// partial KeysResult with the guard error. nil means ungoverned.
	Budget *guard.Budget
}

// Validate rejects nonsensical configurations with an error wrapping
// guard.ErrInvalidOptions, by the rules of the TANE options they share.
func (o KeysOptions) Validate() error {
	return Options{Workers: o.Workers, MaxPartitionBytes: o.MaxPartitionBytes}.Validate()
}

// KeysResult is the outcome of a candidate-key discovery run.
type KeysResult struct {
	// Keys are the minimal candidate keys in canonical order. For a
	// relation with duplicate tuples no key exists and Keys is empty
	// (no attribute set can separate identical tuples).
	Keys attrset.Family
	// LatticeNodes counts materialised attribute sets.
	LatticeNodes int
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
	// Stats are the partition store's hit/miss/evict/recompute counters
	// and byte footprints.
	Stats pstore.Stats
	// Partial reports that the search stopped early on a budget or
	// deadline overrun (or a contained panic): Keys holds only the keys
	// confirmed before the cutoff, and longer keys may be missing. Always
	// accompanied by a non-nil error.
	Partial bool
}

// Keys finds all minimal candidate keys — the ⊆-minimal attribute sets
// whose stripped partition is empty, also known as minimal unique column
// combinations — of the relation src supplies. It walks TANE's lattice:
// level k holds the non-unique k-sets, and since the Apriori join needs
// every subset of a candidate among the survivors, no superset of a key
// is ever generated. Panics anywhere in the search are contained at this
// boundary and surface as a *guard.PanicError.
func Keys(ctx context.Context, src partition.ColumnSource, opts KeysOptions) (res *KeysResult, err error) {
	start := time.Now()
	res = &KeysResult{}
	var sr *search
	defer func() {
		if p := recover(); p != nil {
			res.Partial, res.Stats, res.Elapsed = true, sr.stats(), time.Since(start)
			err = guard.NewPanicError("keys", p)
		}
	}()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if rows := src.Rows(); src.Arity() == 0 || rows <= 1 {
		// The empty set is a key iff the relation has at most one tuple.
		if rows <= 1 {
			res.Keys = attrset.Family{attrset.Empty()}
		}
		res.Elapsed = time.Since(start)
		return res, nil
	}
	var level []*node
	if sr, level, err = newSearch(ctx, src, pool.Resolve(opts.Workers), opts.MaxPartitionBytes, opts.Budget); err != nil {
		return nil, err
	}
	err = sr.walk(ctx, nil, level, "keys", faultinject.KeysLevel,
		func(_ map[attrset.Set]*node, level []*node) ([]*node, error) {
			res.LatticeNodes += len(level)
			survivors := level[:0]
			for _, nd := range level {
				if nd.size == 0 { // every tuple unique
					res.Keys = append(res.Keys, nd.set)
				} else {
					survivors = append(survivors, nd)
				}
			}
			return survivors, nil
		})
	// A governed cutoff keeps the keys confirmed so far as a partial
	// result; any other failure discards them.
	if err != nil && !guard.Governed(err) {
		return nil, err
	}
	res.Keys.Sort()
	res.Partial, res.Stats, res.Elapsed = err != nil, sr.stats(), time.Since(start)
	return res, err
}
