// Package keys discovers the candidate keys of a relation instance: the
// ⊆-minimal attribute sets whose stripped partition is empty (every tuple
// unique), also known as minimal unique column combinations.
//
// Candidate keys are the other half of the dba workflow the Dep-Miner
// paper targets: the discovered FDs say what *should* be keys
// (X with X⁺ = R), and this package says what *is* unique in the
// instance; the two coincide exactly (a set is an instance key iff the
// discovered cover closes it to R), which the test suite exploits as a
// cross-check between this levelwise search and the FD pipeline.
//
// The search is TANE-style levelwise over the attribute lattice: level k
// holds the non-unique k-sets, partitions are computed by products along
// the lattice, supersets of found keys are pruned via Apriori generation.
// Like TANE, the partition products of each level fan out over
// internal/pool workers, and the partitions live in a memory-bounded
// internal/pstore store — evicted under Options.MaxPartitionBytes and
// recomputed on demand. The uniqueness test itself is a cached flag set
// when the partition is built, so eviction never re-runs a test.
package keys

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/pstore"
)

// Options configure a key discovery run.
type Options struct {
	// Workers caps the worker pool computing each level's partition
	// products: 0 = all cores, 1 = the sequential reference path. The
	// discovered keys are identical for every value.
	Workers int
	// MaxPartitionBytes bounds the resident byte footprint of the
	// materialised partitions (0 = unbounded); over the cap partitions
	// are evicted and recomputed on demand. See pstore.
	MaxPartitionBytes int64
	// Budget governs the levelwise search: each lattice level charges its
	// width (the number of materialised partitions) and every partition
	// materialisation charges its byte footprint. On overrun the keys
	// found so far are returned as a partial Result with the guard error.
	// nil means ungoverned.
	Budget *guard.Budget
}

// Validate rejects nonsensical configurations with an error wrapping
// guard.ErrInvalidOptions.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d", guard.ErrInvalidOptions, o.Workers)
	}
	if o.MaxPartitionBytes < 0 {
		return fmt.Errorf("%w: negative MaxPartitionBytes %d", guard.ErrInvalidOptions, o.MaxPartitionBytes)
	}
	return nil
}

// Result is the outcome of a key discovery run.
type Result struct {
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

// node is one attribute set of the current level. The partition lives in
// the store; uniqueness is cached when it is built.
type node struct {
	set    attrset.Set
	unique bool
}

// Discover finds all minimal candidate keys of the relation src supplies,
// reading each column once into its single-attribute partition. Panics
// anywhere in the search are contained at this boundary and surface as a
// *guard.PanicError.
func Discover(ctx context.Context, src partition.ColumnSource, opts Options) (res *Result, err error) {
	start := time.Now()
	res = &Result{}
	var store *pstore.Store
	defer func() {
		if p := recover(); p != nil {
			if store != nil {
				res.Stats = store.Stats()
			}
			res.Partial = true
			res.Elapsed = time.Since(start)
			err = guard.NewPanicError("keys", p)
		}
	}()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n, rows := src.Arity(), src.Rows()
	if n == 0 || rows <= 1 {
		// The empty set is a key iff the relation has at most one tuple.
		if rows <= 1 {
			res.Keys = attrset.Family{attrset.Empty()}
		}
		res.Elapsed = time.Since(start)
		return res, nil
	}

	db, err := partition.NewDatabaseFromSource(src)
	if err != nil {
		return nil, err
	}
	workers := pool.Resolve(opts.Workers)
	probers := make([]*partition.Prober, workers)
	for w := range probers {
		probers[w] = partition.NewProber(rows)
	}
	store = pstore.New(opts.MaxPartitionBytes, opts.Budget)

	level := make([]*node, 0, n)
	for a, p := range db.Attr {
		store.PutRoot(attrset.Single(a), p)
		level = append(level, &node{set: attrset.Single(a), unique: p.IsUnique()})
	}

	for k := 1; len(level) > 0; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("keys: cancelled: %w", err)
		}
		if ferr := faultinject.Fire(faultinject.KeysLevel); ferr != nil {
			return failKeys(res, store, start, ferr)
		}
		if cerr := opts.Budget.Charge("keys", len(level)); cerr != nil {
			return failKeys(res, store, start, cerr)
		}
		res.LatticeNodes += len(level)
		survivors := level[:0]
		for _, nd := range level {
			if nd.unique {
				res.Keys = append(res.Keys, nd.set)
			} else {
				survivors = append(survivors, nd)
			}
		}
		// Apriori join of the non-unique sets; supersets of keys cannot
		// be generated because one of their subsets is missing. The
		// survivors are sorted, so sets sharing a prefix (the set minus
		// its largest attribute) are consecutive.
		surviveIdx := make(map[attrset.Set]bool, len(survivors))
		for _, nd := range survivors {
			surviveIdx[nd.set] = true
		}
		type candidate struct {
			nd          *node
			left, right attrset.Set
		}
		var cands []candidate
		for lo := 0; lo < len(survivors); {
			prefix := survivors[lo].set.Without(survivors[lo].set.Max())
			hi := lo + 1
			for hi < len(survivors) && survivors[hi].set.Without(survivors[hi].set.Max()) == prefix {
				hi++
			}
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					cand := survivors[i].set.Union(survivors[j].set)
					ok := true
					cand.ForEach(func(a attrset.Attr) {
						if !surviveIdx[cand.Without(a)] {
							ok = false
						}
					})
					if !ok {
						continue
					}
					cands = append(cands, candidate{
						nd:   &node{set: cand},
						left: survivors[i].set, right: survivors[j].set,
					})
				}
			}
			lo = hi
		}
		slices.SortFunc(cands, func(a, b candidate) int { return a.nd.set.CompareLex(b.nd.set) })

		perr := pool.Run(ctx, workers, len(cands), func(ctx context.Context, w, t int) error {
			c := cands[t]
			lp, err := store.Get(c.left, probers[w])
			if err != nil {
				return err
			}
			rp, err := store.Get(c.right, probers[w])
			if err != nil {
				return err
			}
			p := probers[w].Product(lp, rp)
			c.nd.unique = p.IsUnique()
			return store.Put(c.nd.set, c.left, c.right, k+1, p)
		})
		if perr != nil {
			return failKeys(res, store, start, perr)
		}
		// Level k's partitions were only needed as product inputs.
		store.Forget(k)
		next := make([]*node, len(cands))
		for i, c := range cands {
			next[i] = c.nd
		}
		level = next
	}
	res.Keys.Sort()
	res.Stats = store.Stats()
	res.Elapsed = time.Since(start)
	return res, nil
}

// failKeys finalises an interrupted search: governed errors keep the keys
// confirmed so far as a partial result, anything else drops them.
func failKeys(res *Result, store *pstore.Store, start time.Time, err error) (*Result, error) {
	if !guard.Governed(err) {
		return nil, err
	}
	res.Partial = true
	res.Keys.Sort()
	res.Stats = store.Stats()
	res.Elapsed = time.Since(start)
	return res, err
}
