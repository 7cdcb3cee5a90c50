// Package tane reimplements the TANE algorithm (Huhtala, Kärkkäinen,
// Porkka, Toivonen: "Efficient discovery of functional and approximate
// dependencies using partitions", ICDE 1998) — the baseline the Dep-Miner
// paper compares against (§5.1).
//
// TANE searches the attribute-set lattice levelwise, starting from small
// left-hand sides. For each set X of the current level it maintains the
// stripped partition π̂_X (computed by partition products along the
// lattice) and the RHS-candidate set C⁺(X); a dependency X\{A} → A is
// emitted when valid and minimal, keys prune their supersets, and sets
// with empty candidate sets are dropped. The validity test compares full
// partition class counts: X → A holds iff |π_X| = |π_{X∪A}|.
//
// Like the paper's authors ("we have implemented our version of Tane"),
// this is a from-scratch reimplementation: the original binary is limited
// to 32 attributes and another platform.
//
// The package also provides TANE's approximate-dependency mode: X → A is
// approximately valid when its g₃ error (minimum fraction of tuples to
// remove for the FD to hold) is at most a threshold ε, and the
// candidate keys of the instance (Keys): the key search is the same walk
// of the lattice — the same level loop, join and partition store — with
// "every tuple unique" as its only per-node rule.
//
// # Execution model
//
// Each level is held as a canonically sorted slice of nodes. The two
// partition-heavy phases — deriving C⁺(X) with the validity tests, and
// the partition products of the Apriori join — fan out over
// internal/pool workers, one task per node, each worker probing with its
// own reusable partition.Prober and emitting FDs into its node's private
// buffer; buffers merge in node order, so the cover is byte-identical
// for every Options.Workers value. The PRUNE step and the join's
// candidate enumeration are pure set algebra and stay serial.
//
// Partitions live in an internal/pstore store: charged by byte footprint
// against Options.MaxPartitionBytes, evicted LRU-per-level when over the
// cap, and transparently recomputed from the single-attribute roots on a
// miss (the classic forget-and-recompute trade). The validity and key
// tests of exact mode need only class counts, which are cached per node
// when its partition is built — so exact search touches the store only
// inside the join, and a tight cap costs recomputes, never correctness.
package tane

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/pstore"
)

// Options configure a TANE run.
type Options struct {
	// Epsilon is the approximate-dependency threshold ε ∈ [0, 1). Zero
	// discovers exact dependencies (classic mode). With ε > 0, an FD
	// X → A is emitted when g₃(X → A) ≤ ε and no subset-LHS dependency
	// X'⊂X already satisfies it.
	Epsilon float64
	// MaxLHS bounds the size of left-hand sides explored (0 = no bound).
	// Levels beyond the bound are not generated.
	MaxLHS int
	// Workers caps the worker pool evaluating each lattice level:
	// 0 = all cores, 1 = the sequential reference path. The discovered
	// cover is byte-identical for every value.
	Workers int
	// MaxPartitionBytes bounds the resident byte footprint of the
	// materialised partitions (0 = unbounded). Over the cap, partitions
	// are evicted LRU-per-level and recomputed on demand along their
	// product path; the trade costs time, never correctness. The
	// single-attribute root partitions are pinned outside the cap.
	MaxPartitionBytes int64
	// Budget governs the run: each lattice level charges its width (the
	// number of candidate attribute sets materialised) and every
	// partition materialisation charges its byte footprint, both against
	// the one shared pool, and each level passes a deadline checkpoint.
	// On overrun Run returns the partial Result (FDs of the levels
	// completed, Partial = true) together with the guard error. nil
	// means ungoverned.
	Budget *guard.Budget
}

// Validate rejects nonsensical configurations with an error wrapping
// guard.ErrInvalidOptions — the same sentinel the core pipeline's Options
// use.
func (o Options) Validate() error {
	if o.Epsilon < 0 || o.Epsilon >= 1 {
		return fmt.Errorf("%w: tane epsilon %v out of [0,1)", guard.ErrInvalidOptions, o.Epsilon)
	}
	if o.MaxLHS < 0 {
		return fmt.Errorf("%w: negative MaxLHS %d", guard.ErrInvalidOptions, o.MaxLHS)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d", guard.ErrInvalidOptions, o.Workers)
	}
	if o.MaxPartitionBytes < 0 {
		return fmt.Errorf("%w: negative MaxPartitionBytes %d", guard.ErrInvalidOptions, o.MaxPartitionBytes)
	}
	return nil
}

// Result is the outcome of a TANE run.
type Result struct {
	// FDs is the discovered cover of minimal (approximately) valid,
	// non-trivial dependencies, in deterministic order. An empty-LHS FD
	// ∅ → A denotes a constant column.
	FDs fd.Cover
	// LatticeNodes counts the attribute sets materialised across all
	// levels (search-space size).
	LatticeNodes int
	// Levels is the number of lattice levels processed.
	Levels int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Stats are the partition store's counters: hits, misses, evictions,
	// recomputes and byte footprints. The byte peaks are deterministic
	// bounds; hit/miss/recompute counts depend on worker scheduling
	// (the cover never does).
	Stats pstore.Stats
	// Partial reports that the search stopped early on a budget or
	// deadline overrun (or a contained panic): FDs holds only the
	// dependencies emitted by the levels completed before the cutoff.
	// Always accompanied by a non-nil error from Run.
	Partial bool
}

// node is the per-attribute-set lattice state. The partition itself lives
// in the store; the node caches the two counts every exact-mode test
// needs (size = ‖π̂_X‖, fullClasses = |π_X|), so eviction can never
// invalidate a test already paid for.
type node struct {
	set   attrset.Set
	cplus attrset.Set
	size  int     // ‖π̂_X‖, tuples in stripped classes
	full  int     // |π_X|, full class count
	fds   []fd.FD // dependencies emitted for this node, merged in node order
}

// search bundles the per-run state threaded through the level loop.
type search struct {
	rows     int // |r|
	universe attrset.Set
	epsilon  float64
	maxLHS   int
	workers  int
	budget   *guard.Budget
	probers  []*partition.Prober
	checkers []*g3Checker
	store    *pstore.Store
	cstore   *cplusStore
}

// newSearch reads each column of src once into its single-attribute
// partition and sets up what every walk of the lattice shares: one prober
// per worker and the store with the singletons pinned as roots. It
// returns the first level, one node per attribute.
func newSearch(ctx context.Context, src partition.ColumnSource, workers int, capBytes int64, budget *guard.Budget) (*search, []*node, error) {
	db, err := partition.NewDatabaseFromSource(ctx, src, workers)
	if err != nil {
		return nil, nil, err
	}
	n := len(db.Attr)
	sr := &search{
		rows:     db.NumRows,
		universe: attrset.Universe(n),
		workers:  workers,
		budget:   budget,
		probers:  make([]*partition.Prober, workers),
		store:    pstore.New(capBytes, budget),
	}
	for w := range sr.probers {
		sr.probers[w] = partition.NewProber(sr.rows)
	}
	singles := make([]node, n)
	level := make([]*node, n)
	for a, p := range db.Attr {
		sr.store.PutRoot(attrset.Single(a), p)
		singles[a] = node{set: attrset.Single(a), size: p.Size(), full: p.FullClassCount()}
		level[a] = &singles[a]
	}
	return sr, level, nil
}

// stats returns the store's counters, or none before the store exists.
func (sr *search) stats() pstore.Stats {
	if sr == nil {
		return pstore.Stats{}
	}
	return sr.store.Stats()
}

// Run executes TANE on the relation src supplies. Panics anywhere in the
// search are contained at this boundary and surface as a
// *guard.PanicError.
func Run(ctx context.Context, src partition.ColumnSource, opts Options) (res *Result, err error) {
	start := time.Now()
	res = &Result{}
	var sr *search
	defer func() {
		if p := recover(); p != nil {
			res.Partial, res.Stats, res.Elapsed = true, sr.stats(), time.Since(start)
			err = guard.NewPanicError("tane", p)
		}
	}()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if src.Arity() == 0 {
		res.Elapsed = time.Since(start)
		return res, nil
	}
	var level []*node
	if sr, level, err = newSearch(ctx, src, pool.Resolve(opts.Workers), opts.MaxPartitionBytes, opts.Budget); err != nil {
		return nil, err
	}
	sr.epsilon, sr.maxLHS = opts.Epsilon, opts.MaxLHS
	sr.checkers = make([]*g3Checker, sr.workers)
	for w := range sr.checkers {
		sr.checkers[w] = newG3Checker(sr.rows)
	}
	sr.cstore = &cplusStore{universe: sr.universe, m: map[attrset.Set]attrset.Set{
		attrset.Empty(): sr.universe, // C⁺(∅) = R
	}}

	// π_∅ has a single class (all tuples); its full class count is 1.
	all := make([]int, sr.rows)
	for i := range all {
		all[i] = i
	}
	emptyPart := partition.FromClasses(sr.rows, [][]int{all})
	sr.store.PutRoot(attrset.Empty(), emptyPart)
	empty := &node{set: attrset.Empty(), cplus: sr.universe,
		size: emptyPart.Size(), full: emptyPart.FullClassCount()}

	err = sr.walk(ctx, map[attrset.Set]*node{attrset.Empty(): empty}, level, "tane", faultinject.TANELevel,
		func(prev map[attrset.Set]*node, level []*node) ([]*node, error) {
			res.Levels++
			res.LatticeNodes += len(level)
			if err := sr.computeDependencies(ctx, prev, level); err != nil {
				return nil, err
			}
			// Merge the per-node FD buffers in canonical node order.
			for _, nd := range level {
				res.FDs = append(res.FDs, nd.fds...)
				nd.fds = nil
				sr.cstore.m[nd.set] = nd.cplus
			}
			return sr.prune(level, res), nil
		})
	// A governed cutoff keeps the FDs of the completed levels as a
	// partial result; any other failure discards it.
	if err != nil && !guard.Governed(err) {
		return nil, err
	}
	if opts.MaxLHS > 0 {
		kept := res.FDs[:0]
		for _, f := range res.FDs {
			if f.LHS.Len() <= opts.MaxLHS {
				kept = append(kept, f)
			}
		}
		res.FDs = kept
	}
	res.FDs.Sort()
	res.Partial, res.Stats, res.Elapsed = err != nil, sr.stats(), time.Since(start)
	return res, err
}

// walk is the level loop both searches run. Each level passes the
// context and fault checkpoints and charges its width to the budget
// under phase; visit then handles it — with prev indexing the previous
// level's survivors — and returns the nodes that may grow, whose Apriori
// join is the next level. The walk ends when a level comes out empty, or
// after level maxLHS when that is set.
func (sr *search) walk(ctx context.Context, prev map[attrset.Set]*node, level []*node, phase, point string,
	visit func(prev map[attrset.Set]*node, level []*node) ([]*node, error)) error {
	for k := 1; len(level) > 0; k++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%s: cancelled at level %d: %w", phase, k, err)
		}
		if err := faultinject.Fire(point); err != nil {
			return err
		}
		if err := sr.budget.Charge(phase, len(level)); err != nil {
			return err
		}
		survivors, err := visit(prev, level)
		if err != nil {
			return err
		}
		if sr.maxLHS > 0 && k > sr.maxLHS {
			return nil
		}
		next, nextIdx, err := sr.generateNextLevel(ctx, survivors, k+1)
		if err != nil {
			return err
		}
		// Levels below the new one are dead weight: exact searches never
		// read a partition outside the join, approximate mode still needs
		// the current level's partitions for next level's g₃.
		if sr.epsilon == 0 {
			sr.store.Forget(k)
		} else {
			sr.store.Forget(k - 1)
		}
		prev, level = nextIdx, next
	}
	return nil
}

// computeDependencies is TANE's COMPUTE_DEPENDENCIES, fanned out one task
// per node: derive C⁺(X) from the previous level, then test X\{A} → A for
// each candidate A ∈ X∩C⁺(X). Each task writes only its own node (cplus
// and the FD buffer), reads the immutable previous level, and — in
// approximate mode only — fetches partitions from the store with its
// worker's private prober; exact mode tests on the cached class counts
// alone.
func (sr *search) computeDependencies(ctx context.Context, prevIdx map[attrset.Set]*node, level []*node) error {
	return pool.Run(ctx, sr.workers, len(level), func(ctx context.Context, w, t int) error {
		nd := level[t]
		x := nd.set
		// C⁺(X) = ∩_{A∈X} C⁺(X \ {A}).
		cplus := sr.universe
		x.ForEach(func(a attrset.Attr) {
			if sub, ok := prevIdx[x.Without(a)]; ok {
				cplus = cplus.Intersect(sub.cplus)
			} else {
				// Subset pruned away ⇒ no candidates survive.
				cplus = attrset.Set{}
			}
		})
		nd.cplus = cplus

		candidates := x.Intersect(cplus)
		var verr error
		candidates.ForEach(func(a attrset.Attr) {
			if verr != nil {
				return
			}
			lhs := x.Without(a)
			sub, ok := prevIdx[lhs]
			if !ok {
				return
			}
			valid := false
			if sr.epsilon == 0 {
				// Exact: X\{A} → A holds iff |π_{X\{A}}| = |π_X|
				// (refining cannot lose classes; equality means no class
				// splits on A). Pure count comparison — no partitions.
				valid = sub.full == nd.full
			} else {
				lhsPart, err := sr.store.Get(lhs, sr.probers[w])
				if err != nil {
					verr = err
					return
				}
				xPart, err := sr.store.Get(x, sr.probers[w])
				if err != nil {
					verr = err
					return
				}
				valid = sr.checkers[w].g3(lhsPart, xPart) <= sr.epsilon
			}
			if valid {
				nd.fds = append(nd.fds, fd.FD{LHS: lhs, RHS: a})
				// Remove A and all B ∈ R \ X from C⁺(X).
				nd.cplus = nd.cplus.Intersect(x).Without(a)
			}
		})
		return verr
	})
}

// prune is TANE's PRUNE: drop sets with empty candidate sets, and apply
// key pruning — a (super)key X yields its remaining dependencies X → A
// directly and is removed from the level. It returns the surviving nodes
// in canonical order. The key test runs on the cached partition counts,
// so pruning never touches the store; the C⁺ of every node was recorded
// before the call (the minimality guard consults same-level sets that
// are themselves being pruned).
func (sr *search) prune(level []*node, res *Result) []*node {
	survivors := level[:0]
	for _, nd := range level {
		if nd.cplus.IsEmpty() {
			continue
		}
		if sr.isKey(nd) {
			x := nd.set
			nd.cplus.Diff(x).ForEach(func(a attrset.Attr) {
				// Minimality guard: A ∈ ∩_{B∈X} C⁺((X∪{A}) \ {B}). The
				// intersected sets have |X| attributes; they live in the
				// current level, were pruned at an earlier level, or
				// were never generated — the store covers all three.
				in := true
				xa := x.With(a)
				x.ForEach(func(b attrset.Attr) {
					if !sr.cstore.cplusOf(xa.Without(b)).Contains(a) {
						in = false
					}
				})
				if in {
					res.FDs = append(res.FDs, fd.FD{LHS: x, RHS: a})
				}
			})
			continue
		}
		survivors = append(survivors, nd)
	}
	return survivors
}

// isKey reports whether the node's attribute set is a (super)key —
// exactly for ε = 0, approximately (error ≤ ε) otherwise — from the
// cached partition counts.
func (sr *search) isKey(nd *node) bool {
	if sr.epsilon == 0 {
		return nd.size == 0 // stripped partition empty ⟺ every tuple unique
	}
	rows := sr.rows
	if rows == 0 {
		return true
	}
	// e(X) = (‖π̂_X‖ - |π̂_X|) / |r|, with |π̂_X| = |π_X| - (|r| - ‖π̂_X‖).
	stripped := nd.full - (rows - nd.size)
	return float64(nd.size-stripped)/float64(rows) <= sr.epsilon
}

// cplusStore memoises C⁺ values of every attribute set encountered, and
// evaluates the defining recurrence for sets the levelwise search never
// materialised (their lattice lineage was pruned). It is only touched by
// the serial PRUNE step.
type cplusStore struct {
	universe attrset.Set
	m        map[attrset.Set]attrset.Set
}

// cplusOf returns the stored C⁺(Y), computing and memoising
// ∩_{B∈Y} C⁺(Y\{B}) when absent. The recursion bottoms out at C⁺(∅) = R,
// which is seeded at construction.
func (s *cplusStore) cplusOf(y attrset.Set) attrset.Set {
	if c, ok := s.m[y]; ok {
		return c
	}
	c := s.universe
	y.ForEach(func(b attrset.Attr) {
		c = c.Intersect(s.cplusOf(y.Without(b)))
	})
	s.m[y] = c
	return c
}

// generateNextLevel is TANE's GENERATE_NEXT_LEVEL in two phases. The
// candidate enumeration — prefix join of the surviving sets plus the
// all-subsets-present prune — is pure set algebra and runs serially over
// the sorted survivors (consecutive runs share a prefix, so the join is a
// linear scan). The partition products, the expensive part, fan out one
// task per candidate; each multiplies the candidate's two join parents,
// stores the product under that path and caches the class counts on the
// node. It returns the new level in canonical order together with the
// survivors' index (the next iteration's previous-level lookup).
func (sr *search) generateNextLevel(ctx context.Context, survivors []*node, levelNum int) ([]*node, map[attrset.Set]*node, error) {
	surviveIdx := make(map[attrset.Set]*node, len(survivors))
	for _, nd := range survivors {
		surviveIdx[nd.set] = nd
	}
	var cands []attrset.Set
	// Prefix runs: survivors are sorted lexicographically, so all sets
	// sharing the |X|-1 smallest attributes (the set minus its largest)
	// are consecutive, each run internally ascending by last attribute.
	// The candidates therefore come out in canonical order — runs ascend
	// by prefix, and within a run by the pair of last attributes — so the
	// next level needs no sort.
	for lo := 0; lo < len(survivors); {
		prefix := survivors[lo].set.Without(survivors[lo].set.Max())
		hi := lo + 1
		for hi < len(survivors) && survivors[hi].set.Without(survivors[hi].set.Max()) == prefix {
			hi++
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				cand := survivors[i].set.Union(survivors[j].set)
				// Prune: every |cand|-1 subset must have survived.
				ok := true
				cand.ForEach(func(a attrset.Attr) {
					if _, in := surviveIdx[cand.Without(a)]; !in {
						ok = false
					}
				})
				if ok {
					cands = append(cands, cand)
				}
			}
		}
		lo = hi
	}
	nodes := make([]node, len(cands))
	err := pool.Run(ctx, sr.workers, len(cands), func(ctx context.Context, w, t int) error {
		nd := &nodes[t]
		nd.set = cands[t]
		// The join parents: the candidate without its largest attribute,
		// and without its second largest.
		left := nd.set.Without(nd.set.Max())
		right := nd.set.Without(left.Max())
		lp, err := sr.store.Get(left, sr.probers[w])
		if err != nil {
			return err
		}
		rp, err := sr.store.Get(right, sr.probers[w])
		if err != nil {
			return err
		}
		p := sr.probers[w].Product(lp, rp)
		nd.size, nd.full = p.Size(), p.FullClassCount()
		return sr.store.Put(nd.set, left, right, levelNum, p)
	})
	if err != nil {
		return nil, nil, err
	}
	next := make([]*node, len(nodes))
	for i := range nodes {
		next[i] = &nodes[i]
	}
	return next, surviveIdx, nil
}

// g3Checker computes the g₃ error of approximate mode; one per worker,
// since the tuple→class scratch table is reused across calls.
type g3Checker struct {
	rows    int
	scratch []int // tuple → class size in the X∪A partition
}

func newG3Checker(rows int) *g3Checker {
	return &g3Checker{rows: rows, scratch: make([]int, rows)}
}

// g3 computes g₃(LHS → A) = (Σ_{c∈π̂_LHS} (|c| − maxfreq(c))) / |r|,
// where maxfreq(c) is the size of the largest sub-class of c in π_{LHS∪A}
// (TANE §4.2, stripped-partition form). lhsPart is π̂_LHS and xPart is
// π̂_{LHS∪A}.
func (ck *g3Checker) g3(lhsPart, xPart *partition.Partition) float64 {
	if ck.rows == 0 {
		return 0
	}
	// Map tuples to their class size in π̂_X; singletons count 1.
	for i := range ck.scratch {
		ck.scratch[i] = 1
	}
	for ci, nc := 0, xPart.NumClasses(); ci < nc; ci++ {
		c := xPart.Class(ci)
		for _, t := range c {
			ck.scratch[t] = len(c)
		}
	}
	removed := 0
	for ci, nc := 0, lhsPart.NumClasses(); ci < nc; ci++ {
		c := lhsPart.Class(ci)
		maxFreq := 1
		for _, t := range c {
			if ck.scratch[t] > maxFreq {
				maxFreq = ck.scratch[t]
			}
		}
		removed += len(c) - maxFreq
	}
	return float64(removed) / float64(ck.rows)
}
