// Shard computation: the agree-set sweep over an explicit tuple range,
// the unit a distributed discovery dispatches to workers, and the fan-out
// that makes some of a run's shards remote.
//
// A shard is a block of tuples [Start, End), and stands for their
// couples: each tuple u with every earlier tuple t < u sharing a class
// with it. That set is a function of the data alone — not of the walk
// order, nor of which classes the MC test keeps, since every dominated
// class lies inside a kept one — so a tuple range names the same
// couples on every node that builds its plan from the same relation
// bytes, and content fingerprints make "same bytes" verifiable. No
// numbering of the couples needs to be shared. ComputeShard sweeps only
// its tuples and emits the deduplicated agree sets in raw word order
// (extsort.Compare) — the run order — without the canonical sort or the
// empty-set completion, which belong to whoever unions the shards.
// Finish applies exactly that tail once over the merged family.
//
// Plan.Run with a Remote is that union: each shard's run is fetched from
// the remote source or, when the fetch fails, swept locally, and every
// run joins the one merge a local sweep uses.
//
// Byte-identity argument (the distributed analogue of the spill
// contract): the shards partition the tuples, so their union examines
// exactly the couples the single-node sweep examines, each once, and
// their couple counts sum to its count; every shard's output is a
// sorted deduplicated run; the k-way dedup merge of sorted runs is
// insensitive to how its inputs were partitioned; and the one canonical
// sort plus empty-set completion then run once, identically. Where
// shard boundaries fall can therefore never change the merged family —
// and hence never the cover.
package agree

import (
	"context"
	"fmt"
	"slices"
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

// Shard is a half-open tuple range [Start, End) of the plan: the
// couples (t, u) with Start ≤ u < End.
type Shard struct {
	Start, End int
}

// Plan is the frame of one agree-set computation: the stripped-partition
// database and its couple space. Run sweeps all of a Plan's tuples,
// ComputeShard a range of them, through the same sweep. Coordinator and
// workers each build a Plan from the same relation bytes. The
// identifier arena is built lazily, once, and shared by concurrent
// ComputeShard calls.
type Plan struct {
	db *partition.Database
	cs *partition.CoupleSpace
	// wide makes the plan's sweeps run at four words even when the
	// schema fits in one: a test hook for the width differential.
	wide bool

	ecOnce sync.Once
	ecOff  []int32
	ec     []uint64
}

// NewPlan builds db's couple space over up to workers goroutines (0
// meaning GOMAXPROCS; at 1 on the calling goroutine alone). It fails
// when ctx ends or a build task fails.
func NewPlan(ctx context.Context, db *partition.Database, workers int) (*Plan, error) {
	cs, err := partition.NewCoupleSpace(ctx, db, workers)
	if err != nil {
		return nil, fmt.Errorf("agree: planning couples: %w", err)
	}
	return &Plan{db: db, cs: cs}, nil
}

// narrow reports whether the plan's sweeps run at one word: the schema
// fits in attrset.NarrowAttrs and the wide hook is off.
func (p *Plan) narrow() bool { return p.db.Arity() <= attrset.NarrowAttrs && !p.wide }

// Rows returns |r|, the tuple range shards are cut from.
func (p *Plan) Rows() int { return p.db.NumRows }

// Split cuts the plan's tuples into at most n contiguous shards of
// near-equal walk cost (partition.CoupleSpace.Cost), every one holding
// couples; a plan without couples has no shards.
func (p *Plan) Split(n int) []Shard { return p.cut(Shard{0, p.Rows()}, n) }

// cut splits the tuples of sh into at most n contiguous blocks of
// near-equal walk cost, each with a positive cost, together covering
// sh; it returns nil when sh has no couples. Block i ends at the first
// tuple boundary where the cost reaches i/n of the total, and a block
// that would cost nothing joins the next one.
func (p *Plan) cut(sh Shard, n int) []Shard {
	cost := p.cs.Cost()
	base, total := cost[sh.Start], cost[sh.End]-cost[sh.Start]
	if total == 0 {
		return nil
	}
	n = int(max(1, min(int64(n), total)))
	blocks := make([]Shard, 0, n)
	lo := sh.Start
	for i := 1; i <= n; i++ {
		hi := sh.End
		if i < n {
			off, _ := slices.BinarySearch(cost[lo:sh.End+1], base+total*int64(i)/int64(n))
			hi = lo + off
		}
		if cost[hi] > cost[lo] {
			blocks = append(blocks, Shard{lo, hi})
			lo = hi
		}
	}
	blocks[len(blocks)-1].End = sh.End
	return blocks
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
	// Couples is the number of couples the shard's tuples hold.
	Couples int
	// Spill counts the shard's own out-of-core activity (all-zero when the
	// shard's accumulation stayed in memory).
	Spill extsort.Stats
}

// ComputeShard sweeps the tuples in sh and emits the shard's
// deduplicated agree sets in raw run order (strictly increasing
// extsort.Compare). No canonical sort, no empty-set completion — see
// Finish.
//
// Budget contract: the sweep charges its couples to opts.Budget as it
// meets them, exactly as a local sweep of the same tuples would, and
// opts.Budget governs its deadline checkpoints and any spill bytes. A
// coordinator charges a remote shard's attested couples to its own
// budget, keeping governed totals identical to single-node runs.
//
// Errors: a sweep or spill failure is returned before anything is
// emitted, so stream producers can still send a clean error. Only a
// failure during the final merge read-back (or from emit itself) can
// surface after emission started.
func (p *Plan) ComputeShard(ctx context.Context, sh Shard, v Variant, opts Options, emit func(attrset.Set) error) (*ShardResult, error) {
	if sh.Start < 0 || sh.End < sh.Start || sh.End > p.Rows() {
		return nil, fmt.Errorf("agree: shard [%d,%d) outside tuple range [0,%d]", sh.Start, sh.End, p.Rows())
	}
	if p.narrow() {
		return computeShard[attrset.Narrow](ctx, p, sh, v, opts, emit)
	}
	return computeShard[attrset.Set](ctx, p, sh, v, opts, emit)
}

// computeShard is ComputeShard at set width S, sh already checked.
func computeShard[S attrset.Width](ctx context.Context, p *Plan, sh Shard, v Variant, opts Options, emit func(attrset.Set) error) (*ShardResult, error) {
	res := &ShardResult{}
	sp := newSpiller(opts, false)
	locals, couples, err := sweep[S](ctx, p, sh, v, opts, sp)
	res.Couples = couples
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
		if err := counted(attrset.Widen(s)); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Finish turns the raw-order union of the shards' emitted runs into the
// final ag(r): the one canonical sort plus the empty-set completion,
// given the shards' total couple count — exactly the tail of the
// single-node computation, applied once by whoever merged the shards.
func (p *Plan) Finish(sets attrset.Family, couples int) attrset.Family {
	if sets == nil {
		sets = attrset.Family{}
	}
	sets.Sort()
	return addEmptyIfUncovered(p.db, couples, sets)
}

// Remote is a source of sorted runs computed elsewhere — a worker fleet.
// Plan.Run fans its tuples out over the remote's shards; a shard the
// remote cannot serve is swept locally, so a Remote only ever saves
// local work and never changes the family.
type Remote interface {
	// Shards is called once per run, before any Fetch; it returns how
	// many shards to split the tuples into (Split may make fewer).
	Shards() int
	// Fetch computes shard i with variant v elsewhere, adopts its run
	// into sp (extsort.Spiller.AdoptRun, then Commit), and returns the
	// shard's couple count as the remote attested it. On error nothing
	// of the shard may remain in sp. A governed error (guard.Governed)
	// fails the run, because the budget is shared; any other error
	// makes the run sweep the shard locally. Fetch is called
	// concurrently, one goroutine per shard.
	Fetch(ctx context.Context, i int, sh Shard, v Variant, sp *extsort.Spiller) (couples int, err error)
}

// fanOut runs every shard on its own goroutine: fetched from remote
// into sp, its attested couples charged to the run's budget, or, when
// the fetch fails, swept locally into workers that spill into the same
// sp. It returns the local sweeps' workers for the merge, and the
// couples of every shard that completed. The first fatal error — a
// governed fetch failure or charge, or a failed local sweep — cancels
// the sibling shards and is returned.
func fanOut[S attrset.Width](ctx context.Context, p *Plan, shards []Shard, v Variant, opts Options, remote Remote, sp *extsort.Spiller) ([]*workerState[S], int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		locals   []*workerState[S]
		couples  int
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, ferr := remote.Fetch(ctx, i, sh, v, sp)
			switch {
			case ferr == nil:
				mu.Lock()
				couples += n
				mu.Unlock()
				if err := opts.Budget.Charge("agree", n); err != nil {
					fail(err)
				}
				return
			case guard.Governed(ferr):
				fail(ferr)
				return
			case ctx.Err() != nil:
				fail(ctx.Err()) // cancelled, or a sibling already failed
				return
			}
			ws, n, err := sweep[S](ctx, p, sh, v, opts, sp)
			mu.Lock()
			locals = append(locals, ws...)
			couples += n
			mu.Unlock()
			if err != nil {
				fail(fmt.Errorf("shard [%d,%d) local fallback (remote: %v): %w", sh.Start, sh.End, ferr, err))
			}
		}()
	}
	wg.Wait()
	return locals, couples, firstErr
}
