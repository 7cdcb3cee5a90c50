// Package agree computes agree sets ag(r) from stripped partition
// databases (paper §3.1).
//
// The agree set of two tuples is ag(ti,tj) = {A ∈ R | ti[A] = tj[A]};
// ag(r) collects them over all tuple couples. Three computations are
// provided:
//
//   - Naive: direct O(n·p²) pairwise scan of the relation — the baseline
//     the paper's introduction rules out for large relations.
//     (It remains strictly sequential: the reference implementation.)
//   - Couples (Algorithm 2 / "Dep-Miner"): the tuple couples of the
//     maximal equivalence classes MC (Lemma 1), each agree set built by
//     adding attribute A to ag(t,t') whenever both tuples share a class
//     of π̂_A. The loop runs tuple-major (partition.CoupleSpace.AgreeSets):
//     a tuple's classes are walked once for all its couples, so the work
//     is the couples' agree-set sizes, not a pass over r̂ per chunk.
//     Couples are cut into chunks of at most ChunkSize, like the paper's
//     "computing agree sets as soon as a fixed number of couples was
//     generated"; here a chunk is a unit of scheduling, not of memory.
//   - Identifiers (Algorithm 3 / "Dep-Miner 2"): build, per tuple, the
//     list ec(t) of equivalence-class identifiers containing t; then
//     ag(ti,tj) is read off the intersection ec(ti) ∩ ec(tj) (Lemma 2).
//
// All three return the deduplicated set family ag(r); the empty agree set
// is included when some couple of tuples disagrees everywhere, matching
// the paper's running example where ag(r) = {∅, A, BDE, CE, E}.
//
// The paper defines a relation as a *set* of tuples, so all three
// algorithms apply set semantics to duplicate rows: a couple of identical
// tuples (which would agree on the full schema R) contributes nothing to
// ag(r), exactly as if the relation had been deduplicated first.
//
// Couples are never listed whole: the plan numbers the couple space
// u-major (partition.CoupleSpace), and each task regenerates its own
// index range. An Algorithm 2 worker holds one stride batch of agree
// sets plus the sets of the widest tuple's couples; an Algorithm 3
// worker holds 4 B per couple of its task. Agree sets are deduplicated
// as they are produced, by a hash-indexed list of the distinct sets
// (setAccum), so only the family — orders of magnitude smaller than the
// couple stream — is ever sorted (see DESIGN.md §9).
//
// Both variants parallelise across Options.Workers goroutines by cutting
// the couple space into the same contiguous tasks of at most one chunk,
// a chunk being cut further only when there are fewer chunks than
// workers; Algorithm 3 then intersects a task stride by stride. Every
// worker accumulates into a private distinct list and the union is
// emitted in canonical order, so results are byte-identical for any
// worker count.
package agree

import (
	"context"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"time"

	"repro/internal/attrset"
	"repro/internal/extsort"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/relation"
)

// DefaultChunkSize is the default couple count of one chunk, the paper's
// "threshold (associated to the number of tuples)". It sets the task
// granularity and Result.Chunks, not Algorithm 2's memory: a worker
// holds one stride batch (32 B per couple, 256 KiB) plus 32 B per
// couple of the widest tuple, whatever the chunk size.
const DefaultChunkSize = 1 << 20

// Result is the outcome of an agree-set computation.
type Result struct {
	// Sets is ag(r) deduplicated, in canonical order. It never contains
	// the full schema R: two distinct tuples cannot agree everywhere, and
	// couples of duplicate rows are collapsed by all three algorithms
	// (set semantics — the paper defines a relation as a set of tuples).
	Sets attrset.Family
	// Couples is the number of tuple couples examined.
	Couples int
	// Chunks is the paper's chunk count ⌈couples/ChunkSize⌉ for the
	// couples algorithm (1 otherwise), whatever the worker count: a chunk
	// cut across idle workers still counts once.
	Chunks int
	// Spill counts the out-of-core activity when Options.MaxAgreeBytes
	// made the accumulators spill sorted runs to disk, or a Remote's runs
	// were adopted onto disk; all-zero for in-memory runs.
	Spill extsort.Stats
	// Merge is the wall time of the final union of the workers' lists
	// and any spilled or remote runs, plus the canonical finish.
	Merge time.Duration
}

// Naive computes ag(r) by comparing every couple of distinct tuples
// directly on the relation: the O(n·p²) baseline. Couples of duplicate
// tuples (agree set = full schema R) are skipped, so duplicate rows yield
// the same ag(r) as the deduplicated relation — matching the partition
// algorithms, which apply the same set semantics.
func Naive(ctx context.Context, r *relation.Relation) (*Result, error) {
	var acc setAccum
	var batch []attrset.Set
	res := &Result{Chunks: 1}
	full := attrset.Universe(r.Arity())
	for i := 0; i < r.Rows(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("agree: naive scan cancelled: %w", err)
		}
		batch = batch[:0]
		for j := i + 1; j < r.Rows(); j++ {
			res.Couples++
			batch = append(batch, r.AgreeSet(i, j))
		}
		if err := acc.absorb(batch, full); err != nil {
			return nil, err
		}
	}
	res.Sets = attrset.Family(acc.sets)
	res.Sets.Sort()
	return res, nil
}

// Options configure the stripped-partition algorithms.
type Options struct {
	// ChunkSize bounds the couples one task of either variant
	// regenerates, and sets Result.Chunks. Zero means DefaultChunkSize.
	ChunkSize int
	// Workers is the worker-pool width for the couple sweep: 0 means
	// runtime.GOMAXPROCS(0), 1 the sequential reference path. Results are
	// byte-identical for every value.
	Workers int
	// Budget governs the computation: the couple count and the agree
	// sets produced are charged against it, and each chunk/stride passes
	// a deadline checkpoint. On overrun the partial Result accumulated so
	// far is returned together with the guard error. nil = ungoverned.
	Budget *guard.Budget
	// MaxAgreeBytes bounds the agree sets accumulated in memory: when the
	// per-worker accumulation exceeds MaxAgreeBytes/Workers, the sorted
	// run is spilled to a checksummed file in SpillDir and the final merge
	// becomes a streaming k-way merge over disk and memory (see
	// internal/extsort). Spilled bytes are charged to Budget under the
	// "extsort" phase. The emitted family is byte-identical for every
	// threshold — spilling trades I/O for memory, never results. 0 means
	// never spill.
	MaxAgreeBytes int64
	// SpillDir is where spill run files go ("" = the OS temp dir). A
	// per-computation subdirectory is created on first spill and removed
	// when the computation finishes.
	SpillDir string
}

func (o Options) chunkSize() int {
	if o.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return o.ChunkSize
}

// setAccum deduplicates agree sets at insert: sets lists the distinct
// sets seen since the last spill, in insertion order, and index is an
// open-addressing table over it (0 = empty, k = sets[k-1]; linear
// probing, power-of-two size, load at most ½). The family is tiny next
// to the couple stream — 69 distinct sets for 359,428 couples on a
// 12×30,000 relation — so the index stays cache-resident, and only the
// distinct sets are ever sorted: by seal, where a sorted run is required.
// The hash is seeded because uploaded data decides the agree sets, and
// must not be able to predict the probe sequence.
//
// With a spiller attached, the list is sealed and spilled after a batch
// once it holds limit bytes, and accumulation restarts empty; the spilled
// runs rejoin at mergeAccums' k-way merge, so spill boundaries cannot
// change the emitted family.
type setAccum struct {
	sets  []attrset.Set
	index []int32
	seed  maphash.Seed // zero = drawn on first insert
	sp    *extsort.Spiller
	limit int64 // spill threshold in bytes; only read when sp != nil
}

// Accum is a growing set family deduplicated at insert by the sweep's
// own accumulator, for callers that maintain ag(r) outside a sweep. The
// zero value is an empty family.
type Accum struct{ acc setAccum }

// Insert adds s to the family unless it is already there.
func (a *Accum) Insert(s attrset.Set) { a.acc.insert(s) }

// Sets returns the distinct sets in insertion order. The returned slice
// must not be modified, and is valid only until the next Insert.
func (a *Accum) Sets() []attrset.Set { return a.acc.sets }

// rawCompare orders sets by their backing words — extsort.Compare, the
// run order shared with the on-disk spill files. Zero iff the sets are
// equal, so the k-way merge dedups exactly; the order itself carries no
// meaning and never reaches callers.
func rawCompare(a, b attrset.Set) int { return extsort.Compare(a, b) }

// absorb inserts a batch's sets except full (the whole schema, i.e.
// couples of duplicate tuples: set semantics), then spills the list once
// it holds the configured threshold.
func (ac *setAccum) absorb(batch []attrset.Set, full attrset.Set) error {
	for _, s := range batch {
		if s != full {
			ac.insert(s)
		}
	}
	if ac.sp == nil || int64(len(ac.sets))*extsort.SetBytes < ac.limit {
		return nil
	}
	// On a refused spill the sealed list stays: no set is lost.
	if err := ac.sp.Spill(ac.seal()); err != nil {
		return err
	}
	ac.sets = ac.sets[:0]
	return nil
}

// insert adds s to the list unless it is already there.
func (ac *setAccum) insert(s attrset.Set) {
	if 2*(len(ac.sets)+1) > len(ac.index) {
		ac.rehash(len(ac.sets) + 1)
	}
	if i := ac.probe(s); ac.index[i] == 0 {
		ac.sets = append(ac.sets, s)
		ac.index[i] = int32(len(ac.sets))
	}
}

// probe returns the slot naming s, or the empty slot where s belongs.
func (ac *setAccum) probe(s attrset.Set) uint64 {
	mask := uint64(len(ac.index) - 1)
	i := maphash.Comparable(ac.seed, s) & mask
	for k := ac.index[i]; k != 0 && ac.sets[k-1] != s; k = ac.index[i] {
		i = (i + 1) & mask
	}
	return i
}

// indexSize is the index size for n ≥ 1 sets: the smallest power of two,
// and at least 64, that holds them at load at most ½.
func indexSize(n int) int { return max(64, 1<<bits.Len(uint(2*n-1))) }

// rehash sizes the index for n ≥ 1 sets, within its backing array when
// that is large enough, and re-enters the listed sets.
func (ac *setAccum) rehash(n int) {
	if ac.seed == (maphash.Seed{}) {
		ac.seed = maphash.MakeSeed()
	}
	if size := indexSize(n); cap(ac.index) >= size {
		ac.index = ac.index[:size]
		clear(ac.index)
	} else {
		ac.index = make([]int32, size)
	}
	for k, s := range ac.sets {
		ac.index[ac.probe(s)] = int32(k + 1)
	}
}

// seal sorts the list in raw run order and returns it. The index no
// longer matches the list, so it is emptied: the next insert rebuilds it.
func (ac *setAccum) seal() []attrset.Set {
	slices.SortFunc(ac.sets, rawCompare)
	ac.index = ac.index[:0]
	return ac.sets
}

// union folds the workers' lists into one accumulator whose list and
// index are reserved for their total. The index starts at the longest
// list, a lower bound on the union, so overlapping lists probe a small
// table. A lone non-empty list is already distinct: it is only copied.
func union(locals []*workerState) setAccum {
	total, longest := 0, 0
	for _, w := range locals {
		total += len(w.accum.sets)
		longest = max(longest, len(w.accum.sets))
	}
	u := setAccum{sets: make([]attrset.Set, 0, total)}
	if longest == total {
		for _, w := range locals {
			u.sets = append(u.sets, w.accum.sets...)
		}
		return u
	}
	u.index = make([]int32, 0, indexSize(total))
	u.rehash(longest)
	for _, w := range locals {
		for _, s := range w.accum.sets {
			u.insert(s)
		}
	}
	return u
}

// sealedRuns seals the workers' non-empty lists into sorted runs for the
// k-way merge and returns them with their total length.
func sealedRuns(locals []*workerState) ([][]attrset.Set, int) {
	runs := make([][]attrset.Set, 0, len(locals))
	total := 0
	for _, w := range locals {
		if len(w.accum.sets) > 0 {
			runs = append(runs, w.accum.seal())
			total += len(w.accum.sets)
		}
	}
	return runs, total
}

// mergeAccums unites the workers' lists with any runs they spilled or a
// Remote delivered into one deduplicated family — never nil, sharing no
// memory with the workers, exact-size when nothing spilled — whose
// canonical sort is the caller's. A union cannot depend on how couples
// were spread over workers or where spills fell, so neither can ag(r).
func mergeAccums(locals []*workerState, sp *extsort.Spiller) (attrset.Family, error) {
	if sp == nil || sp.Runs() == 0 {
		u := union(locals)
		if len(u.sets) == cap(u.sets) {
			return u.sets, nil
		}
		return append(make(attrset.Family, 0, len(u.sets)), u.sets...), nil
	}
	// Streaming k-way merge over disk readers and in-memory runs. The
	// capacity estimate counts cross-run duplicates once each, so it can
	// overshoot; clip before handing the family on.
	runs, total := sealedRuns(locals)
	out := make(attrset.Family, 0, total+int(sp.Stats().SpilledSets))
	err := sp.Merge(runs, func(s attrset.Set) error {
		out = append(out, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Clip(out), nil
}

// workerState is the per-worker accumulation and scratch reused across
// every chunk or stride the worker processes.
type workerState struct {
	accum    setAccum
	walker   partition.Walker // regenerates the task's couples
	partners []int32          // Identifiers: the task's partner per couple
	batch    []attrset.Set    // per-stride batch before absorption
}

// Couples computes ag(r) with Algorithm 2 (AGREE_SET): couples from MC,
// each agree set read off the classes its tuples share, in chunks.
// Chunks are independent (each computes its own couples' sets only),
// so they are distributed over Options.Workers goroutines, cut further
// when there are fewer chunks than workers; the per-worker lists are
// united and emitted in canonical order, making the result independent
// of worker count and scheduling.
func Couples(ctx context.Context, db *partition.Database, opts Options) (*Result, error) {
	p, err := NewPlan(ctx, db, opts.Workers)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, VariantCouples, opts, nil)
}

// Run sweeps the plan's whole couple space through variant v and
// finishes the united family into ag(r), charging the couple count before
// the sweep and the family size after it. With a nil remote the sweep is
// local; otherwise the couple space is fanned out over the remote's
// shards (see fanOut), whose runs join the same merge as local and
// spilled ones.
func (p *Plan) Run(ctx context.Context, v Variant, opts Options, remote Remote) (*Result, error) {
	couples := p.Couples()
	res := &Result{Couples: couples, Chunks: 1}
	if v == VariantCouples {
		res.Chunks = max(1, (couples+opts.chunkSize()-1)/opts.chunkSize())
	}
	var shards []Shard
	if remote != nil {
		shards = p.Split(remote.Shards(couples))
	}
	if err := opts.Budget.Charge("agree", couples); err != nil {
		return res, err
	}
	// Remote runs are adopted into a spiller whatever the threshold.
	sp := newSpiller(opts, remote != nil)
	if sp != nil {
		defer func() {
			res.Spill = sp.Stats()
			sp.Close()
		}()
	}
	var locals []*workerState
	var err error
	if remote == nil {
		locals, err = p.sweep(ctx, 0, couples, v, opts, sp)
	} else {
		locals, err = p.fanOut(ctx, shards, v, opts, remote, sp)
	}
	if err != nil {
		return governedPartial(res, locals, sp, err, v)
	}
	t0 := time.Now()
	if remote != nil {
		if err := faultinject.Fire(faultinject.ShardMerge); err != nil {
			return nil, fmt.Errorf("agree: merging %s runs: %w", v, err)
		}
	}
	sets, err := mergeAccums(locals, sp)
	if err != nil {
		return nil, fmt.Errorf("agree: merging %s runs: %w", v, err)
	}
	res.Sets = p.Finish(sets)
	res.Merge = time.Since(t0)
	if err := opts.Budget.Charge("agree", len(res.Sets)); err != nil {
		return res, err
	}
	return res, nil
}

// sweep runs the couples [lo, hi) through variant v — Algorithm 2's
// chunk loop or Algorithm 3's stride loop — over Options.Workers
// goroutines, each absorbing its batches into a private distinct list
// (spilled into sp past Options.MaxAgreeBytes). Both variants cut
// [lo, hi) into the same tasks (taskSize), and every task regenerates
// its own couples once. An Algorithm 2 task first passes the AgreeChunk
// hook and a budget deadline checkpoint; an Algorithm 3 task passes the
// AgreeStride hook and a checkpoint before each stride it intersects.
// pool.Run joins every worker before returning, so the locals are safe
// to merge whatever the error.
func (p *Plan) sweep(ctx context.Context, lo, hi int, v Variant, opts Options, sp *extsort.Spiller) ([]*workerState, error) {
	workers := pool.Resolve(opts.Workers)
	locals := makeWorkers(workers, opts, sp)
	full := attrset.Universe(p.db.Arity())
	step := taskSize(hi-lo, opts.chunkSize(), workers)
	var ecOff []int32
	var ec []uint64
	var ends []int
	if v == VariantIdentifiers {
		ecOff, ec = p.ecIndex()
		ends = p.cs.Ends()
	}
	tasks := (hi - lo + step - 1) / step
	err := pool.Run(ctx, workers, tasks, func(taskCtx context.Context, w, t int) error {
		from := lo + t*step
		ws := locals[w]
		if v == VariantCouples {
			if err := checkpoint(faultinject.AgreeChunk, opts); err != nil {
				return err
			}
			return ws.agreeSets(p.cs, from, min(from+step, hi), full)
		}
		var u int
		ws.partners, u = p.cs.Partners(from, min(from+step, hi), &ws.walker, ws.partners)
		for s := 0; s < len(ws.partners); s += stride {
			if err := checkpoint(faultinject.AgreeStride, opts); err != nil {
				return err
			}
			var err error
			ws.batch, u, err = intersectStride(taskCtx, ec, ecOff, ends, from+s, u, ws.partners[s:min(s+stride, len(ws.partners))], ws.batch[:0])
			if err != nil {
				return err
			}
			if err := ws.accum.absorb(ws.batch, full); err != nil {
				return err
			}
		}
		return nil
	})
	return locals, err
}

// checkpoint fires a sweep fault hook, then checks the budget deadline.
func checkpoint(hook string, opts Options) error {
	if err := faultinject.Fire(hook); err != nil {
		return err
	}
	return opts.Budget.Checkpoint("agree")
}

// taskSize is the couple count of one sweep task over n couples: at
// most one chunk, cut smaller when there are fewer chunks than workers
// so that every worker gets a share, but never below stride.
//
// A task regenerates its couples once. A tuple whose couples it enters
// mid-way is re-walked from its first partner, and in Algorithm 2 a
// tuple it leaves mid-way is walked whole too: at most ‖r̂‖ steps each.
// Algorithm 3 intersects a task stride by stride, so it keeps the
// stride's small batches and its checkpoints while a tuple with many
// partners is walked once per task, not once per stride.
func taskSize(n, chunkSize, workers int) int {
	return min(chunkSize, max((n+workers-1)/workers, stride))
}

// newSpiller returns the spiller a sweep under opts accumulates into, or
// nil when Options.MaxAgreeBytes keeps everything in memory and a
// spiller is not needed anyway. The caller closes it.
func newSpiller(opts Options, needed bool) *extsort.Spiller {
	if opts.MaxAgreeBytes <= 0 && !needed {
		return nil
	}
	return extsort.NewSpiller(opts.SpillDir, opts.Budget)
}

// makeWorkers builds the per-worker accumulators, attaching sp with a
// per-worker byte threshold when Options.MaxAgreeBytes asks for
// out-of-core accumulation. The per-worker share is clamped up to one
// record, so even a degenerate threshold spills whole records rather
// than nothing.
func makeWorkers(workers int, opts Options, sp *extsort.Spiller) []*workerState {
	locals := make([]*workerState, workers)
	perWorker := max(opts.MaxAgreeBytes/int64(workers), extsort.SetBytes)
	for w := range locals {
		locals[w] = &workerState{}
		if opts.MaxAgreeBytes > 0 {
			locals[w].accum.sp = sp
			locals[w].accum.limit = perWorker
		}
	}
	return locals
}

// governedPartial classifies a sweep failure: governed outcomes (budget,
// deadline, contained panic) keep the agree sets the workers accumulated
// before the overrun, canonically sorted, while cancellations and
// ordinary errors discard the result as before. The empty-set completion
// is skipped on the partial path: it is only meaningful for a full sweep.
// When merging the partial runs itself fails (a damaged spill file, say),
// the partial is returned with no family at all — never a silently
// truncated one.
func governedPartial(res *Result, locals []*workerState, sp *extsort.Spiller, err error, v Variant) (*Result, error) {
	if !guard.Governed(err) {
		return nil, fmt.Errorf("agree: %s cancelled: %w", v, err)
	}
	sets, merr := mergeAccums(locals, sp)
	if merr != nil {
		return res, err
	}
	sets.Sort()
	res.Sets = sets
	return res, err
}

// addEmptyIfUncovered inserts the empty agree set when some couple of
// tuples lies in no MC class, i.e. disagrees on every attribute. Couples
// inside MC classes always share at least the attribute whose partition
// produced the class, so ∅ can only arise this way. (The paper's Lemma 1
// elides this case, but its running example lists ∅ ∈ ag(r), and omitting
// it would make CMAX_SET wrongly emit ∅ → A for non-constant columns when
// no non-empty agree set avoids A.) The empty set is the minimum of the
// canonical order, so insertion is a front check.
func addEmptyIfUncovered(db *partition.Database, covered int, sets attrset.Family) attrset.Family {
	total := db.NumRows * (db.NumRows - 1) / 2
	if covered >= total {
		return sets
	}
	if len(sets) > 0 && sets[0].IsEmpty() {
		return sets
	}
	return append(attrset.Family{attrset.Empty()}, sets...)
}

// agreeSets runs Algorithm 2 over the couples [lo, hi) of cs
// (partition.CoupleSpace.AgreeSets), copying the sets into ws.batch and
// absorbing it into ws.accum every stride couples from lo and at hi, so
// a spill can only fall where those boundaries put it. ws.accum drops
// sets equal to full. It writes only worker-local state, so concurrent
// calls on distinct workerStates are safe.
func (ws *workerState) agreeSets(cs *partition.CoupleSpace, lo, hi int, full attrset.Set) error {
	ws.batch = slices.Grow(ws.batch[:0], min(hi-lo, stride))
	err := cs.AgreeSets(lo, hi, &ws.walker, func(sets []attrset.Set) error {
		for len(sets) > 0 {
			n := min(len(sets), stride-len(ws.batch))
			ws.batch = append(ws.batch, sets[:n]...)
			if sets = sets[n:]; len(ws.batch) == stride {
				if err := ws.accum.absorb(ws.batch, full); err != nil {
					return err
				}
				ws.batch = ws.batch[:0]
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return ws.accum.absorb(ws.batch, full)
}

// stride is the couple count of the smallest unit of sweep work: the
// floor of a task, one Identifiers intersection between checkpoints, and
// one batch of agree sets assembled for absorption. It is large enough
// to amortise dispatch, small enough to keep cancellation latency low
// and keep an assembled batch (32 bytes a couple) cache-resident.
const stride = 1 << 13

// buildECIndex lays out, per tuple t, the list ec(t) of (attribute, class
// id) pairs for which t lies in some class of π̂_A, encoded a<<32|id in
// one flat arena sliced per tuple by ecOff. Intersecting two tuples'
// lists by attribute and comparing class ids implements (A,i) ∈ ec(t) ∩
// ec(t'). The arena is laid out by a counting pass, so building it costs
// three allocations regardless of |r| or |R|.
func buildECIndex(db *partition.Database) (ecOff []int32, ec []uint64) {
	ecOff = make([]int32, db.NumRows+1)
	for _, p := range db.Attr {
		for ci, nc := 0, p.NumClasses(); ci < nc; ci++ {
			for _, t := range p.Class(ci) {
				ecOff[t+1]++
			}
		}
	}
	for t := 0; t < db.NumRows; t++ {
		ecOff[t+1] += ecOff[t]
	}
	ec = make([]uint64, ecOff[db.NumRows])
	cursor := make([]int32, db.NumRows)
	for a, p := range db.Attr {
		for ci, nc := 0, p.NumClasses(); ci < nc; ci++ {
			for _, t := range p.Class(ci) {
				// Attributes are visited in increasing order, so each
				// tuple's list is built sorted by attribute.
				ec[ecOff[t]+cursor[t]] = uint64(a)<<32 | uint64(uint32(ci))
				cursor[t]++
			}
		}
	}
	return ecOff, ec
}

// intersectStride runs the Lemma 2 intersection for one stride of
// couples, the couples [lo, lo+len(partners)) with partners[k−lo] the
// partner of couple k, appending each agree set to batch. u is the tuple
// of couple lo; intersectStride returns the tuple of the stride's last
// couple, where the next stride starts looking. It checks the task
// context every 4096 couples to keep cancellation latency low.
func intersectStride(taskCtx context.Context, ec []uint64, ecOff []int32, ends []int, lo, u int, partners []int32, batch []attrset.Set) ([]attrset.Set, int, error) {
	for i, t := range partners {
		if i&0xFFF == 0 {
			if err := taskCtx.Err(); err != nil {
				return batch, u, err
			}
		}
		for lo+i >= ends[u+1] {
			u++
		}
		var s attrset.Set
		et := ec[ecOff[t]:ecOff[t+1]]
		eu := ec[ecOff[u]:ecOff[u+1]]
		x, y := 0, 0
		for x < len(et) && y < len(eu) {
			at, au := et[x]>>32, eu[y]>>32
			switch {
			case at < au:
				x++
			case at > au:
				y++
			default:
				if uint32(et[x]) == uint32(eu[y]) {
					s.Add(int(at))
				}
				x++
				y++
			}
		}
		batch = append(batch, s)
	}
	return batch, u, nil
}
