// Shard computation: the agree-set sweep over an explicit couple range,
// the unit a distributed discovery dispatches to workers, and the fan-out
// that makes some of a run's shards remote.
//
// A Plan pins the shardable state both sides must agree on: the couple
// list is generated once (deduplicated, in (t, u) order by construction —
// generateCouples), so a [Start,End) index range names the same couples
// on every node that computes it from the same relation bytes; content
// fingerprints make "same bytes" verifiable. ComputeShard sweeps only its
// range and emits the deduplicated agree sets in raw word order
// (extsort.Compare) — the run order — without the canonical sort or the
// empty-set completion, which belong to whoever unions the shards. Finish
// applies exactly that tail once over the merged family.
//
// Plan.Run with a Remote is that union: each shard's run is fetched from
// the remote source or, when the fetch fails, swept locally, and every
// run joins the one merge a local sweep uses.
//
// Byte-identity argument (the distributed analogue of the spill
// contract): the shards are contiguous ranges of one globally sorted
// deduplicated couple list, so their union examines exactly the couples
// the single-node sweep examines, each once; every shard's output is a
// sorted deduplicated run; the k-way dedup merge of sorted runs is
// insensitive to how its inputs were partitioned; and the one canonical
// sort plus empty-set completion then run once, identically. Where shard
// boundaries fall can therefore never change the merged family — and
// hence never the cover.
package agree

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/attrset"
	"repro/internal/extsort"
	"repro/internal/guard"
	"repro/internal/partition"
)

// Variant selects which sweep a shard runs: Algorithm 2 (couples) or
// Algorithm 3 (identifiers). Every shard of one run uses the same
// variant — Plan.Run passes its own to every Fetch and local sweep, so
// the choice cannot diverge per shard.
type Variant int

const (
	// VariantCouples is Algorithm 2 (AGREE_SET): each MC couple swept
	// against the stripped partitions — the evaluation's "Dep-Miner".
	VariantCouples Variant = iota
	// VariantIdentifiers is Algorithm 3 (AGREE_SET 2): per-tuple
	// equivalence-class identifier lists, intersected per MC couple
	// (Lemma 2) — the evaluation's "Dep-Miner 2", which the paper finds
	// faster on large |R| or |r|; EXPERIMENTS.md no longer reproduces it.
	VariantIdentifiers
)

// String names the variant's sweep in error messages.
func (v Variant) String() string {
	if v == VariantIdentifiers {
		return "identifier scan"
	}
	return "couples scan"
}

// Shard is a half-open couple index range [Start, End) into the plan's
// couple list.
type Shard struct {
	Start, End int
}

// Plan is the frame of one agree-set computation: the stripped-partition
// database and its globally sorted deduplicated couple list. Run sweeps a
// Plan's full couple range, ComputeShard a sub-range,
// through the same sweep. Coordinator and workers each build a Plan from
// the same relation bytes; equality of the couple count is the cheap
// structural check that they did. The identifier arena is built lazily,
// once, and shared by concurrent ComputeShard calls.
type Plan struct {
	db      *partition.Database
	couples []uint64

	ecOnce sync.Once
	ecOff  []int32
	ec     []uint64
}

// NewPlan builds the couple list for db.
func NewPlan(db *partition.Database) *Plan {
	return &Plan{db: db, couples: generateCouples(db)}
}

// Couples returns the total couple count — the space Split partitions.
func (p *Plan) Couples() int { return len(p.couples) }

// Split partitions the plan's couple space into n contiguous near-equal
// shards; see the function Split.
func (p *Plan) Split(n int) []Shard { return Split(len(p.couples), n) }

// Split partitions a space of total couples into n contiguous near-equal
// shards (never more shards than couples; an empty couple space yields
// one empty shard, so the pipeline shape is uniform).
func Split(total, n int) []Shard {
	if n < 1 {
		n = 1
	}
	if total == 0 {
		return []Shard{{0, 0}}
	}
	if n > total {
		n = total
	}
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		shards = append(shards, Shard{Start: i * total / n, End: (i + 1) * total / n})
	}
	return shards
}

func (p *Plan) ecIndex() ([]int32, []uint64) {
	p.ecOnce.Do(func() {
		p.ecOff, p.ec = buildECIndex(p.db)
	})
	return p.ecOff, p.ec
}

// ShardResult reports one shard computation.
type ShardResult struct {
	// Sets is the number of agree sets emitted.
	Sets int64
	// Spill counts the shard's own out-of-core activity (all-zero when the
	// shard's accumulation stayed in memory).
	Spill extsort.Stats
}

// ComputeShard sweeps the couples in sh and emits the shard's
// deduplicated agree sets in raw run order (strictly increasing
// extsort.Compare), sequentially from one goroutine. No canonical sort,
// no empty-set completion — see Finish.
//
// Budget contract: ComputeShard does not charge the couple count — the
// caller charges it (the coordinator once for the whole space, a worker
// per request), keeping governed totals identical to single-node runs.
// opts.Budget still governs the sweep's deadline checkpoints and any
// spill bytes.
//
// Errors: a sweep or spill failure is returned before anything is
// emitted, so stream producers can still send a clean error. Only a
// failure during the final merge read-back (or from emit itself) can
// surface after emission started.
func (p *Plan) ComputeShard(ctx context.Context, sh Shard, v Variant, opts Options, emit func(attrset.Set) error) (*ShardResult, error) {
	if sh.Start < 0 || sh.End < sh.Start || sh.End > len(p.couples) {
		return nil, fmt.Errorf("agree: shard [%d,%d) outside couple range [0,%d]", sh.Start, sh.End, len(p.couples))
	}
	res := &ShardResult{}
	sp := newSpiller(opts, false)
	locals, err := p.sweep(ctx, p.couples[sh.Start:sh.End], v, opts, sp)
	if sp != nil {
		defer func() {
			res.Spill = sp.Stats()
			sp.Close()
		}()
	}
	if err != nil {
		return res, fmt.Errorf("agree: shard [%d,%d) sweep: %w", sh.Start, sh.End, err)
	}

	counted := func(s attrset.Set) error {
		res.Sets++
		return emit(s)
	}
	if sp != nil && sp.Runs() > 0 {
		// Stream the disk-backed merge straight out: a spilling worker
		// never holds its shard's family in memory.
		runs, _ := sealedRuns(locals)
		if err := sp.Merge(runs, counted); err != nil {
			return res, fmt.Errorf("agree: shard [%d,%d) merge: %w", sh.Start, sh.End, err)
		}
		return res, nil
	}
	u := union(locals)
	for _, s := range u.seal() {
		if err := counted(s); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Finish turns the raw-order union of the shards' emitted runs into the
// final ag(r): the one canonical sort plus the empty-set completion —
// exactly the tail of the single-node computation, applied once by
// whoever merged the shards.
func (p *Plan) Finish(sets attrset.Family) attrset.Family {
	if sets == nil {
		sets = attrset.Family{}
	}
	sets.Sort()
	return addEmptyIfUncovered(p.db, len(p.couples), sets)
}

// Remote is a source of sorted runs computed elsewhere — a worker fleet.
// Plan.Run fans its couple space out over the remote's shards; a shard
// the remote cannot serve is swept locally, so a Remote only ever saves
// local work and never changes the family.
type Remote interface {
	// Shards is called once per run, before any Fetch, with the size of
	// the couple space; it returns how many contiguous shards to split it
	// into (Split clamps the count).
	Shards(couples int) int
	// Fetch computes shard i with variant v elsewhere and adopts its run
	// into sp (extsort.Spiller.AdoptRun, then Commit). On error nothing
	// of the shard may remain in sp. A governed error (guard.Governed)
	// fails the run, because the budget is shared; any other error
	// makes the run sweep the shard locally. Fetch is called
	// concurrently, one goroutine per non-empty shard.
	Fetch(ctx context.Context, i int, sh Shard, v Variant, sp *extsort.Spiller) error
}

// fanOut runs every non-empty shard on its own goroutine: fetched from
// remote into sp or, when the fetch fails, swept locally into workers
// that spill into the same sp. It returns the local sweeps' workers for
// the merge. The first fatal error — a governed fetch failure or a
// failed local sweep — cancels the sibling shards and is returned.
func (p *Plan) fanOut(ctx context.Context, shards []Shard, v Variant, opts Options, remote Remote, sp *extsort.Spiller) ([]*workerState, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		locals   []*workerState
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	for i, sh := range shards {
		if sh.Start == sh.End {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ferr := remote.Fetch(ctx, i, sh, v, sp)
			switch {
			case ferr == nil:
				return
			case guard.Governed(ferr):
				fail(ferr)
				return
			case ctx.Err() != nil:
				fail(ctx.Err()) // cancelled, or a sibling already failed
				return
			}
			ws, err := p.sweep(ctx, p.couples[sh.Start:sh.End], v, opts, sp)
			mu.Lock()
			locals = append(locals, ws...)
			mu.Unlock()
			if err != nil {
				fail(fmt.Errorf("shard [%d,%d) local fallback (remote: %v): %w", sh.Start, sh.End, ferr, err))
			}
		}()
	}
	wg.Wait()
	return locals, firstErr
}
