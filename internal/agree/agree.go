// Package agree computes agree sets ag(r) from stripped partition
// databases (paper §3.1).
//
// The agree set of two tuples is ag(ti,tj) = {A ∈ R | ti[A] = tj[A]};
// ag(r) collects them over all tuple couples. Three computations are
// provided:
//
//   - Naive: direct O(n·p²) pairwise scan of the relation — the baseline
//     the paper's introduction rules out for large relations. No miner
//     runs it: it is the strictly sequential reference that tests feed to
//     core.Run as a known ag(r).
//   - Couples (Algorithm 2 / "Dep-Miner"): the tuple couples of the
//     maximal equivalence classes MC (Lemma 1), each agree set built by
//     adding attribute A to ag(t,t') whenever both tuples share a class
//     of π̂_A. The loop runs tuple by tuple (partition.Walker.AgreeSets):
//     one walk over a tuple's classes meets its couples and builds their
//     sets.
//   - Identifiers (Algorithm 3 / "Dep-Miner 2"): build, per tuple, the
//     list ec(t) of equivalence-class identifiers containing t; then
//     ag(ti,tj) is read off the intersection ec(ti) ∩ ec(tj) (Lemma 2),
//     for each partner the couple walk of tuple tj meets.
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
// Couples are never listed whole: a sweep task is a block of tuples,
// and each tuple's couples are regenerated by one walk over its classes
// (partition.CoupleSpace), so a worker holds one stride batch of agree
// sets plus the partners and sets of its widest tuple. Agree sets are
// deduplicated as they are produced, by a hash-indexed list of the
// distinct sets (setAccum), so only the family — orders of magnitude
// smaller than the couple stream — is ever sorted (see DESIGN.md §9).
//
// A sweep's sets are one word (attrset.Narrow) when the schema has at
// most 64 attributes and attrset.Set otherwise, picked once per run from
// the arity: the walker, the batch, the accumulator and Algorithm 3's
// intersection are one generic source over attrset.Width. Sets widen to
// attrset.Set only where they leave the package: Result.Sets, spilled
// runs, a shard's emitted run, and Accum.
//
// Both variants parallelise across Options.Workers goroutines over the
// same tuple blocks, cut to near-equal walk cost. Every worker
// accumulates into a private distinct list and the union is emitted in
// canonical order, so results are byte-identical for any worker count.
package agree

import (
	"cmp"
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

// Result is the outcome of an agree-set computation.
type Result struct {
	// Sets is ag(r) deduplicated, in canonical order. It never contains
	// the full schema R: two distinct tuples cannot agree everywhere, and
	// couples of duplicate rows are collapsed by all three algorithms
	// (set semantics — the paper defines a relation as a set of tuples).
	Sets attrset.Family
	// Couples is the number of tuple couples examined: the sum of the
	// sweep tasks' and remote shards' counts.
	Couples int
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
	var acc setAccum[attrset.Set]
	var batch []attrset.Set
	res := &Result{}
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
	// Workers is the worker-pool width for the couple sweep: 0 means
	// runtime.GOMAXPROCS(0), 1 the sequential reference path. Results are
	// byte-identical for every value.
	Workers int
	// Budget governs the computation: the couples are charged against it
	// batch by batch as the sweep meets them, each batch passing a
	// deadline checkpoint, and the agree sets produced once at the end.
	// On overrun the partial Result accumulated so far is returned
	// together with the guard error. nil = ungoverned.
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

// setAccum deduplicates agree sets at insert: sets lists the distinct
// sets seen since the last spill, in insertion order, and index is an
// open-addressing table over it (0 = empty, k = sets[k-1]; linear
// probing, power-of-two size, load at most ½). The family is tiny next
// to the couple stream — 69 distinct sets for 359,428 couples on a
// 12×30,000 relation — so the index stays cache-resident, and only the
// distinct sets are ever sorted: by seal, where a sorted run is required.
// The hash is keyed because uploaded data decides the agree sets, and
// must not be able to predict the probe sequence.
//
// With a spiller attached, the list is sealed and spilled after a batch
// once it holds limit bytes, counted as extsort.SetBytes per set at
// either width, and accumulation restarts empty; the spilled runs rejoin
// at mergeAccums' k-way merge, so spill boundaries cannot change the
// emitted family.
type setAccum[S attrset.Width] struct {
	sets  []S
	index []int32
	keys  [2]uint64 // the hash's keys; zero = drawn on first insert
	sp    *extsort.Spiller
	limit int64         // spill threshold in bytes; only read when sp != nil
	wide  []attrset.Set // the run last handed to the spiller, reused when narrow
}

// Accum is a growing set family deduplicated at insert by the sweep's
// own accumulator, for callers that maintain ag(r) outside a sweep. The
// zero value is an empty family.
type Accum struct{ acc setAccum[attrset.Set] }

// Insert adds s to the family unless it is already there.
func (a *Accum) Insert(s attrset.Set) { a.acc.insert(s) }

// Sets returns the distinct sets in insertion order. The returned slice
// must not be modified, and is valid only until the next Insert.
func (a *Accum) Sets() []attrset.Set { return a.acc.sets }

// rawCompare orders sets by their backing words — extsort.Compare, the
// run order shared with the on-disk spill files. A narrow set's missing
// words are zero, so narrow sets sort as their widened copies do. Zero
// iff the sets are equal, so the k-way merge dedups exactly; the order
// itself carries no meaning and never reaches callers.
func rawCompare[S attrset.Width](a, b S) int {
	for w := 0; w < len(a); w++ {
		if a[w] != b[w] {
			return cmp.Compare(a[w], b[w])
		}
	}
	return 0
}

// widen returns xs as attrset.Sets: xs itself at the wide width, else a
// widened copy in buf's backing array, or in a new exact-size one when
// buf is too short.
func widen[S attrset.Width](xs []S, buf []attrset.Set) []attrset.Set {
	if wide, ok := any(xs).([]attrset.Set); ok {
		return wide
	}
	if cap(buf) < len(xs) {
		buf = make([]attrset.Set, len(xs))
	}
	buf = buf[:len(xs)]
	for i, x := range xs {
		buf[i] = attrset.Widen(x)
	}
	return buf
}

// absorb inserts a batch's sets except full (the whole schema, i.e.
// couples of duplicate tuples: set semantics), then spills the list once
// it holds the configured threshold.
func (ac *setAccum[S]) absorb(batch []S, full S) error {
	for _, s := range batch {
		if s != full {
			ac.insert(s)
		}
	}
	if ac.sp == nil || int64(len(ac.sets))*extsort.SetBytes < ac.limit {
		return nil
	}
	// On a refused spill the sealed list stays: no set is lost. The
	// spiller writes the run before it returns, so ac.wide is free again.
	ac.wide = widen(ac.seal(), ac.wide)
	if err := ac.sp.Spill(ac.wide); err != nil {
		return err
	}
	ac.sets = ac.sets[:0]
	return nil
}

// insert adds s to the list unless it is already there.
func (ac *setAccum[S]) insert(s S) {
	if 2*(len(ac.sets)+1) > len(ac.index) {
		ac.rehash(len(ac.sets) + 1)
	}
	if i := ac.probe(s); ac.index[i] == 0 {
		ac.sets = append(ac.sets, s)
		ac.index[i] = int32(len(ac.sets))
	}
}

// probe returns the slot naming s, or the empty slot where s belongs.
func (ac *setAccum[S]) probe(s S) uint64 {
	mask := uint64(len(ac.index) - 1)
	i := ac.hash(s) & mask
	for k := ac.index[i]; k != 0 && ac.sets[k-1] != s; k = ac.index[i] {
		i = (i + 1) & mask
	}
	return i
}

// hash folds s's words under the accumulator's two keys, wyhash's way:
// each word, keyed, is multiplied by the other key mixed with the hash so
// far, and the 128-bit product's halves are XORed.
func (ac *setAccum[S]) hash(s S) uint64 {
	var h uint64
	for w := 0; w < len(s); w++ {
		hi, lo := bits.Mul64(s[w]^ac.keys[0], ac.keys[1]^h)
		h = hi ^ lo
	}
	return h
}

// newKeys draws an accumulator's two hash keys from a fresh random seed.
func newKeys() [2]uint64 {
	seed := maphash.MakeSeed()
	return [2]uint64{maphash.String(seed, "k0"), maphash.String(seed, "k1")}
}

// indexSize is the index size for n ≥ 1 sets: the smallest power of two,
// and at least 64, that holds them at load at most ½.
func indexSize(n int) int { return max(64, 1<<bits.Len(uint(2*n-1))) }

// rehash sizes the index for n ≥ 1 sets, within its backing array when
// that is large enough, and re-enters the listed sets.
func (ac *setAccum[S]) rehash(n int) {
	if ac.keys == [2]uint64{} {
		ac.keys = newKeys()
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
func (ac *setAccum[S]) seal() []S {
	slices.SortFunc(ac.sets, rawCompare[S])
	ac.index = ac.index[:0]
	return ac.sets
}

// union folds the workers' lists into one accumulator whose list and
// index are reserved for their total. The index starts at the longest
// list, a lower bound on the union, so overlapping lists probe a small
// table. A lone non-empty list is already distinct: it is only copied.
func union[S attrset.Width](locals []*workerState[S]) setAccum[S] {
	total, longest := 0, 0
	for _, w := range locals {
		total += len(w.accum.sets)
		longest = max(longest, len(w.accum.sets))
	}
	u := setAccum[S]{sets: make([]S, 0, total)}
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
// k-way merge, widened, and returns them with their total length.
func sealedRuns[S attrset.Width](locals []*workerState[S]) ([][]attrset.Set, int) {
	runs := make([][]attrset.Set, 0, len(locals))
	total := 0
	for _, w := range locals {
		if len(w.accum.sets) > 0 {
			runs = append(runs, widen(w.accum.seal(), nil))
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
func mergeAccums[S attrset.Width](locals []*workerState[S], sp *extsort.Spiller) (attrset.Family, error) {
	if sp == nil || sp.Runs() == 0 {
		sets := widen(union(locals).sets, nil)
		if len(sets) == cap(sets) {
			return sets, nil
		}
		return append(make(attrset.Family, 0, len(sets)), sets...), nil
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
// every task the worker runs, its sets at the sweep's width S.
type workerState[S attrset.Width] struct {
	accum   setAccum[S]
	walker  partition.Walker[S] // walks the task's tuples
	batch   []S                 // the sets of up to stride couples before absorption
	couples int                 // couples met, over every task
}

// Couples computes ag(r) with Algorithm 2 (AGREE_SET): couples from MC,
// each agree set read off the classes its tuples share, tuple by tuple.
// Tuple blocks are independent (each computes its own couples' sets
// only), so they are distributed over Options.Workers goroutines; the
// per-worker lists are united and emitted in canonical order, making
// the result independent of worker count and scheduling.
func Couples(ctx context.Context, db *partition.Database, opts Options) (*Result, error) {
	p, err := NewPlan(ctx, db, opts.Workers)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, VariantCouples, opts, nil)
}

// Run sweeps all the plan's tuples through variant v and finishes the
// united family into ag(r), charging the couples as the sweep meets
// them and the family size after it. With a nil remote the sweep is
// local; otherwise the tuples are fanned out over the remote's shards
// (see fanOut), whose runs join the same merge as local and spilled
// ones.
func (p *Plan) Run(ctx context.Context, v Variant, opts Options, remote Remote) (*Result, error) {
	if p.narrow() {
		return run[attrset.Narrow](ctx, p, v, opts, remote)
	}
	return run[attrset.Set](ctx, p, v, opts, remote)
}

// run is Plan.Run at set width S.
func run[S attrset.Width](ctx context.Context, p *Plan, v Variant, opts Options, remote Remote) (*Result, error) {
	res := &Result{}
	// Remote runs are adopted into a spiller whatever the threshold.
	sp := newSpiller(opts, remote != nil)
	if sp != nil {
		defer func() {
			res.Spill = sp.Stats()
			sp.Close()
		}()
	}
	var locals []*workerState[S]
	var err error
	if remote == nil {
		locals, res.Couples, err = sweep[S](ctx, p, Shard{0, p.Rows()}, v, opts, sp)
	} else {
		locals, res.Couples, err = fanOut[S](ctx, p, p.Split(remote.Shards()), v, opts, remote, sp)
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
	res.Sets = p.Finish(sets, res.Couples)
	res.Merge = time.Since(t0)
	if err := opts.Budget.Charge("agree", len(res.Sets)); err != nil {
		return res, err
	}
	return res, nil
}

// sweep runs the tuples of sh through variant v over Options.Workers
// goroutines, each absorbing its batches into a private distinct list
// (spilled into sp past Options.MaxAgreeBytes), and returns the workers
// with the couples they met. Both variants cut sh into the same tasks:
// one tuple block per worker, of near-equal walk cost, each costing at
// least a stride. pool.Run joins every worker before returning, so the
// locals and their counts are safe to read whatever the error.
func sweep[S attrset.Width](ctx context.Context, p *Plan, sh Shard, v Variant, opts Options, sp *extsort.Spiller) ([]*workerState[S], int, error) {
	workers := pool.Resolve(opts.Workers)
	locals := makeWorkers[S](workers, opts, sp)
	cost := p.cs.Cost()
	n := (cost[sh.End] - cost[sh.Start] + stride - 1) / stride
	tasks := p.cut(sh, int(min(n, int64(workers))))
	k := kernel[S]{p: p, v: v, opts: opts, hook: faultinject.AgreeChunk}
	for a := range p.db.Arity() {
		attrset.Add(&k.full, a)
	}
	if v == VariantIdentifiers {
		k.ecOff, k.ec = p.ecIndex()
		k.hook = faultinject.AgreeStride
	}
	err := pool.Run(ctx, workers, len(tasks), func(taskCtx context.Context, w, t int) error {
		return locals[w].sweep(taskCtx, &k, tasks[t])
	})
	couples := 0
	for _, ws := range locals {
		couples += ws.couples
	}
	return locals, couples, err
}

// kernel is what every task of one sweep shares: the plan, the variant
// and its per-tuple inputs, and the batch checkpoint's hook and budget.
type kernel[S attrset.Width] struct {
	p     *Plan
	v     Variant
	opts  Options
	full  S       // the whole schema: couples of duplicate tuples
	hook  string  // AgreeChunk for Algorithm 2, AgreeStride for 3
	ecOff []int32 // Algorithm 3's identifier arena
	ec    []uint64
}

// sweep runs one task, the tuples of sh, on ws: each tuple's couples
// are met by one walk, which builds their agree sets as it goes for
// Algorithm 2, and for Algorithm 3 lists the partners whose lists are
// intersected with ec(u). Sets are batched and flushed every stride
// couples and at the end of the task, so a spill can only fall where
// those boundaries put it. It writes only worker-local state, so
// concurrent calls on distinct workerStates are safe.
func (ws *workerState[S]) sweep(ctx context.Context, k *kernel[S], sh Shard) error {
	cs := k.p.cs
	ws.batch = slices.Grow(ws.batch[:0], stride)
	for u := sh.Start; u < sh.End; u++ {
		if k.v == VariantCouples {
			sets := ws.walker.AgreeSets(cs, u)
			for len(sets) > 0 {
				n := min(len(sets), stride-len(ws.batch))
				ws.batch = append(ws.batch, sets[:n]...)
				if sets = sets[n:]; len(ws.batch) == stride {
					if err := ws.flush(ctx, k); err != nil {
						return err
					}
				}
			}
			continue
		}
		eu := k.ec[k.ecOff[u]:k.ecOff[u+1]]
		for _, t := range ws.walker.Walk(cs, u) {
			ws.batch = append(ws.batch, intersect[S](eu, k.ec[k.ecOff[t]:k.ecOff[t+1]]))
			if len(ws.batch) == stride {
				if err := ws.flush(ctx, k); err != nil {
					return err
				}
			}
		}
	}
	return ws.flush(ctx, k)
}

// flush counts the batch's couples, passes the checkpoint — context,
// the variant's fault hook, and the couples' budget charge with its
// deadline check — and absorbs the batch into ws.accum, which drops
// sets equal to the whole schema.
func (ws *workerState[S]) flush(ctx context.Context, k *kernel[S]) error {
	if len(ws.batch) == 0 {
		return nil
	}
	ws.couples += len(ws.batch)
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := faultinject.Fire(k.hook); err != nil {
		return err
	}
	if err := k.opts.Budget.Charge("agree", len(ws.batch)); err != nil {
		return err
	}
	if err := ws.accum.absorb(ws.batch, k.full); err != nil {
		return err
	}
	ws.batch = ws.batch[:0]
	return nil
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
func makeWorkers[S attrset.Width](workers int, opts Options, sp *extsort.Spiller) []*workerState[S] {
	locals := make([]*workerState[S], workers)
	perWorker := max(opts.MaxAgreeBytes/int64(workers), extsort.SetBytes)
	for w := range locals {
		locals[w] = &workerState[S]{}
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
func governedPartial[S attrset.Width](res *Result, locals []*workerState[S], sp *extsort.Spiller, err error, v Variant) (*Result, error) {
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

// stride is the couple count of one batch of agree sets assembled for
// absorption, the floor of a task's walk cost, and the unit of work
// between checkpoints. It is large enough to amortise dispatch, small
// enough to keep cancellation latency low and keep an assembled batch
// (8 bytes a couple at one word, 32 at four: 64 or 256 KiB)
// cache-resident.
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

// intersect is Lemma 2 for one couple: the attributes A whose class
// ids agree in the two tuples' ec lists, both sorted by attribute.
func intersect[S attrset.Width](eu, et []uint64) S {
	var s S
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
				attrset.Add(&s, int(at))
			}
			x++
			y++
		}
	}
	return s
}
