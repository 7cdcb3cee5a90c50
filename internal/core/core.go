// Package core implements the Dep-Miner pipeline (paper Algorithm 1): the
// combined discovery of minimal non-trivial functional dependencies and a
// real-world Armstrong relation from a relation instance.
//
// The five steps, each delegated to its substrate package:
//
//  1. AGREE_SET          — internal/agree (Algorithm 2 or 3)
//  2. CMAX_SET           — internal/maxsets (Algorithm 4)
//  3. LEFT_HAND_SIDE     — internal/hypergraph (Algorithm 5), or the
//     FastFDs depth-first search of internal/fastfds
//  4. FD_OUTPUT          — Algorithm 6, below
//  5. ARMSTRONG_RELATION — internal/armstrong (§4)
//
// Run is the one entry point: its Input is a column source (a relation, a
// CSV stream or a snapshot) or a complete ag(r). Steps 1–4 consume only
// the stripped partition database built from the source's columns, and
// step 5 reads only each attribute's domain size and first dictionary
// values, from any source that keeps its dictionaries (armstrong.Source)
// — matching the paper's limited-main-memory design.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/agree"
	"repro/internal/armstrong"
	"repro/internal/attrset"
	"repro/internal/extsort"
	"repro/internal/fastfds"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/hypergraph"
	"repro/internal/maxsets"
	"repro/internal/partition"
	"repro/internal/relation"
)

// AgreeAlgorithm selects the miner: how agree sets are computed, or
// FastFDs' step 3.
type AgreeAlgorithm int

const (
	// AgreeCouples is Algorithm 2 (the "Dep-Miner" variant of the
	// evaluation): couples of maximal equivalence classes swept against
	// the stripped partitions, chunked to bound memory.
	AgreeCouples AgreeAlgorithm = iota
	// AgreeIdentifiers is Algorithm 3 ("Dep-Miner 2"): per-tuple
	// equivalence-class identifier lists intersected per couple.
	AgreeIdentifiers
	// AgreeNaive is the O(n·p²) direct pairwise scan, for baselines and
	// tests only. It requires a *relation.Relation source.
	AgreeNaive
	// FastFDs is Dep-Miner with a different step 3 (Wyss et al. 2001):
	// agree sets by Algorithm 3 and maximal sets as for Dep-Miner, then a
	// depth-first search over difference sets instead of Algorithm 5.
	FastFDs
)

// String returns the evaluation's name for the algorithm.
func (a AgreeAlgorithm) String() string {
	switch a {
	case AgreeCouples:
		return "Dep-Miner"
	case AgreeIdentifiers:
		return "Dep-Miner 2"
	case AgreeNaive:
		return "naive"
	case FastFDs:
		return "FastFDs"
	default:
		return fmt.Sprintf("AgreeAlgorithm(%d)", int(a))
	}
}

// ArmstrongMode selects step 5's behaviour.
type ArmstrongMode int

const (
	// ArmstrongRealWorldOrSynthetic builds a real-world Armstrong
	// relation, falling back to the synthetic integer construction when
	// Proposition 1 fails. This is the zero value so that default
	// options are safe on arbitrary data.
	ArmstrongRealWorldOrSynthetic ArmstrongMode = iota
	// ArmstrongRealWorld fails discovery if Proposition 1 does not hold.
	ArmstrongRealWorld
	// ArmstrongSynthetic always uses the integer construction.
	ArmstrongSynthetic
	// ArmstrongNone skips step 5.
	ArmstrongNone
)

// Options configure a discovery run. The zero value runs Algorithm 2 with
// the default chunk size, all cores, and builds a real-world Armstrong
// relation with synthetic fallback.
type Options struct {
	// Algorithm selects the miner.
	Algorithm AgreeAlgorithm
	// ChunkSize bounds couples in memory for AgreeCouples; 0 means
	// agree.DefaultChunkSize.
	ChunkSize int
	// Armstrong selects step 5's behaviour.
	Armstrong ArmstrongMode
	// Workers is the worker-pool width of the parallel pipeline phases
	// (the agree-set couple sweep of step 1 and the per-attribute
	// transversal searches of steps 3–4): 0 means runtime.GOMAXPROCS(0),
	// 1 the sequential reference path. Output is byte-identical for
	// every value — parallelism only changes scheduling, never results.
	// The naive agree-set baseline ignores it and stays sequential.
	Workers int
	// Budget governs the run: a wall-clock deadline plus a size budget
	// charged in each phase's own units (couples enumerated, agree sets
	// produced, transversal frontier width). Overruns return a
	// guard.Error wrapping guard.ErrBudget or guard.ErrDeadline and the
	// phase name, together with the partial Result accumulated so far
	// (Result.Partial = true). nil means ungoverned.
	Budget *guard.Budget
	// MaxAgreeBytes bounds the agree sets held in memory during step 1:
	// beyond it, per-worker sorted runs spill to checksummed files and the
	// final dedup becomes a streaming k-way merge (internal/extsort). The
	// cover is byte-identical for every threshold; Result.Stats.Spill
	// reports the traffic. 0 means never spill.
	MaxAgreeBytes int64
	// SpillDir is where agree-set spill files go ("" = the OS temp dir).
	SpillDir string
}

// ErrInvalidOptions is wrapped by every Options validation failure, so
// callers can classify bad configuration apart from runtime failures. It
// is the shared guard sentinel: the TANE and keys Options use the same
// one, so one errors.Is test covers every miner.
var ErrInvalidOptions = guard.ErrInvalidOptions

// Validate rejects nonsensical configurations up front — negative knob
// values and out-of-range enums — so they fail with a typed error at the
// API boundary instead of surfacing as obscure behaviour (or a silent
// default) deep inside a phase.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d", ErrInvalidOptions, o.Workers)
	}
	if o.ChunkSize < 0 {
		return fmt.Errorf("%w: negative ChunkSize %d", ErrInvalidOptions, o.ChunkSize)
	}
	if o.MaxAgreeBytes < 0 {
		return fmt.Errorf("%w: negative MaxAgreeBytes %d", ErrInvalidOptions, o.MaxAgreeBytes)
	}
	switch o.Algorithm {
	case AgreeCouples, AgreeIdentifiers, AgreeNaive, FastFDs:
	default:
		return fmt.Errorf("%w: unknown agree algorithm %d", ErrInvalidOptions, int(o.Algorithm))
	}
	switch o.Armstrong {
	case ArmstrongRealWorldOrSynthetic, ArmstrongRealWorld, ArmstrongSynthetic, ArmstrongNone:
	default:
		return fmt.Errorf("%w: unknown armstrong mode %d", ErrInvalidOptions, int(o.Armstrong))
	}
	return nil
}

// Stats records the wall-clock duration of each pipeline phase, so
// callers can attribute time to pipeline steps without an external
// profiler, plus step 1's out-of-core traffic. A phase this call did not
// run — because the Input already supplied its output, or step 5 was
// skipped — reports zero.
type Stats struct {
	Partition time.Duration // stripped partition database extraction
	AgreeSets time.Duration // step 1
	MaxSets   time.Duration // step 2
	LHS       time.Duration // steps 3–4
	Armstrong time.Duration // step 5
	// AgreeMerge is the part of AgreeSets spent merging step 1's sorted
	// runs — in memory, spilled or remote — into ag(r).
	AgreeMerge time.Duration
	// Spill counts step 1's out-of-core traffic (runs spilled, bytes
	// written, blocks read back) when Options.MaxAgreeBytes is set;
	// all-zero for in-memory runs.
	Spill extsort.Stats
}

// Result is the outcome of a Dep-Miner run.
type Result struct {
	// FDs is the canonical cover: every minimal non-trivial FD X → A of
	// the relation, in deterministic order. An FD with empty LHS denotes
	// a constant column (∅ → A).
	FDs fd.Cover
	// AgreeSets is ag(r), deduplicated, in canonical order.
	AgreeSets attrset.Family
	// MaxSets is MAX(dep(r)) = GEN(dep(r)).
	MaxSets attrset.Family
	// LHS[a] is lhs(dep(r), a) including the trivial {a} when present,
	// exactly as Algorithm 5 computes it; nil under FastFDs.
	LHS []attrset.Family
	// DFSNodes counts the FastFDs search-tree nodes visited in step 3.
	DFSNodes int
	// Armstrong is the Armstrong relation, nil when Options.Armstrong is
	// ArmstrongNone or the Input's source keeps no dictionaries.
	Armstrong *relation.Relation
	// ArmstrongSynthetic reports that the synthetic construction was
	// used (always, or as fallback).
	ArmstrongSynthetic bool
	// Couples is the number of tuple couples examined by step 1; Chunks
	// the number of chunk passes.
	Couples, Chunks int
	// Stats records per-phase wall-clock durations and spill traffic.
	Stats Stats
	// Partial reports that the run stopped early — budget or deadline
	// overrun, or a contained panic — and the Result holds only the
	// phases completed before the cutoff. A partial Result is always
	// accompanied by a non-nil error wrapping guard.ErrBudget,
	// guard.ErrDeadline, or guard.ErrPanic.
	Partial bool
}

// fail classifies a phase error. Governed outcomes — budget or deadline
// overruns and contained panics — keep the phases completed so far: res
// is returned with Partial set alongside the error, honouring the
// partial-result contract. Cancellations and ordinary failures discard
// the result, as before.
func fail(res *Result, err error) (*Result, error) {
	if guard.Governed(err) {
		res.Partial = true
		return res, err
	}
	return nil, err
}

// contain converts a panic escaping a pipeline boundary into a
// *guard.PanicError, marking the result partial. It must be deferred
// directly.
func contain(phase string, res *Result, errp *error) {
	if p := recover(); p != nil {
		res.Partial = true
		*errp = guard.NewPanicError(phase, p)
	}
}

// Input states what a run starts from: a Source runs the whole pipeline,
// Agree skips step 1. The naive agree-set scan reads rows, so it needs a
// *relation.Relation source; step 5 reads dictionaries, so over a source
// that is not an armstrong.Source it is skipped whatever
// Options.Armstrong says.
type Input struct {
	// Source supplies the dictionary-coded columns step 1 partitions.
	Source partition.ColumnSource
	// Agree is a complete, canonical ag(r) plus the counters of whatever
	// computed it (couples, chunks, spill), adopted into the Result as is.
	Agree *agree.Result
	// Arity is the schema width, read only when Source is nil.
	Arity int
	// Remote, when set, is where some of step 1's runs come from: the
	// couple space is fanned out over its shards, and a shard it fails to
	// serve is swept locally (agree.Plan.Run). nil sweeps locally.
	Remote agree.Remote
}

func (in Input) arity() int {
	if in.Source != nil {
		return in.Source.Arity()
	}
	return in.Arity
}

// Discover runs the full Dep-Miner pipeline on a relation.
func Discover(ctx context.Context, r *relation.Relation, opts Options) (*Result, error) {
	return Run(ctx, Input{Source: r}, opts)
}

// Run executes the Dep-Miner pipeline (Algorithm 1) from what in already
// knows; see Input. Step 1 needs a source, and the naive scan a relation
// one, or Run fails with ErrInvalidOptions.
func Run(ctx context.Context, in Input, opts Options) (res *Result, err error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	rel, _ := in.Source.(*relation.Relation)
	if in.Agree == nil && (in.Source == nil || opts.Algorithm == AgreeNaive && rel == nil) {
		return nil, fmt.Errorf("%w: step 1 needs a column source (the naive scan a relation)", ErrInvalidOptions)
	}
	res = &Result{}
	defer contain("core.Run", res, &err)

	// Step 1: AGREE_SET, unless ag(r) is already known.
	agr := in.Agree
	if agr == nil {
		if agr, err = agreeStep(ctx, in, rel, opts, res); err != nil {
			adoptAgree(res, agr)
			return fail(res, err)
		}
	}

	// Steps 2–4.
	if err := deriveFDs(ctx, agr, in.arity(), opts, res); err != nil {
		return fail(res, err)
	}

	// Step 5: ARMSTRONG_RELATION, which needs the dictionaries.
	dicts, ok := in.Source.(armstrong.Source)
	if opts.Armstrong == ArmstrongNone || !ok {
		return res, nil
	}
	if ferr := faultinject.Fire(faultinject.CoreArmstrong); ferr != nil {
		return fail(res, ferr)
	}
	if cerr := opts.Budget.Checkpoint("armstrong"); cerr != nil {
		return fail(res, cerr)
	}
	t0 := time.Now()
	arm, synthetic, aerr := buildArmstrong(dicts, res.MaxSets, opts.Armstrong)
	if aerr != nil {
		return fail(res, aerr)
	}
	res.Armstrong, res.ArmstrongSynthetic = arm, synthetic
	res.Stats.Armstrong = time.Since(t0)
	return res, nil
}

// adoptAgree copies whatever step 1 accumulated before failing into res,
// so a governed overrun mid-sweep still reports the couples examined and
// the (partial) agree sets collected.
func adoptAgree(res *Result, agr *agree.Result) {
	if agr == nil {
		return
	}
	res.AgreeSets = agr.Sets
	res.Couples = agr.Couples
	res.Chunks = agr.Chunks
	res.Stats.Spill = agr.Spill
	res.Stats.AgreeMerge = agr.Merge
}

// agreeStep runs step 1: the naive scan over the relation rel, or the
// partition build from in.Source followed by the stripped-partition sweep
// over one plan, local or fanned out over in.Remote. Every shard of a
// fanned-out run sweeps the run's own variant: Algorithm 3 for
// AgreeIdentifiers and FastFDs, Algorithm 2 otherwise.
func agreeStep(ctx context.Context, in Input, rel *relation.Relation, opts Options, res *Result) (*agree.Result, error) {
	var db *partition.Database
	if opts.Algorithm != AgreeNaive {
		if ferr := faultinject.Fire(faultinject.CorePartition); ferr != nil {
			return nil, ferr
		}
		t0 := time.Now()
		var err error
		db, err = partition.NewDatabaseFromSource(in.Source)
		res.Stats.Partition = time.Since(t0)
		if err != nil {
			return nil, err
		}
		if cerr := opts.Budget.Checkpoint("partition"); cerr != nil {
			return nil, cerr
		}
	}
	if ferr := faultinject.Fire(faultinject.CoreAgree); ferr != nil {
		return nil, ferr
	}
	t0 := time.Now()
	defer func() { res.Stats.AgreeSets = time.Since(t0) }()
	aopts := agree.Options{
		ChunkSize:     opts.ChunkSize,
		Workers:       opts.Workers,
		Budget:        opts.Budget,
		MaxAgreeBytes: opts.MaxAgreeBytes,
		SpillDir:      opts.SpillDir,
	}
	if opts.Algorithm == AgreeNaive {
		return agree.Naive(ctx, rel)
	}
	v := agree.VariantCouples
	if opts.Algorithm == AgreeIdentifiers || opts.Algorithm == FastFDs {
		v = agree.VariantIdentifiers
	}
	return agree.NewPlan(db).Run(ctx, v, aopts, in.Remote)
}

// deriveFDs runs steps 2–4 from the agree sets into res.
func deriveFDs(ctx context.Context, agr *agree.Result, arity int, opts Options, res *Result) error {
	adoptAgree(res, agr)

	// Step 2: CMAX_SET.
	if ferr := faultinject.Fire(faultinject.CoreMaxSets); ferr != nil {
		return ferr
	}
	if cerr := opts.Budget.Checkpoint("maxsets"); cerr != nil {
		return cerr
	}
	t0 := time.Now()
	ms := maxsets.Compute(res.AgreeSets, arity)
	res.MaxSets = ms.AllMax()
	res.Stats.MaxSets = time.Since(t0)

	// Steps 3–4: LEFT_HAND_SIDE then FD_OUTPUT. The per-attribute searches
	// Tr(cmax(dep(r),A)) are independent, so they fan out one task per RHS
	// attribute (paper Fig. 1 step 4); FDs are then emitted from the
	// index-ordered results, keeping the output canonical regardless of
	// which worker finished first. FastFDs searches attribute by
	// attribute instead, and a governed cutoff keeps the attributes it
	// finished.
	if ferr := faultinject.Fire(faultinject.CoreLHS); ferr != nil {
		return ferr
	}
	if cerr := opts.Budget.Checkpoint("lhs"); cerr != nil {
		return cerr
	}
	t0 = time.Now()
	var lhs []attrset.Family
	var err error
	if opts.Algorithm == FastFDs {
		lhs, res.DFSNodes, err = fastfds.Covers(ctx, ms.CMax, opts.Budget)
	} else {
		// cmax(dep(r),A) is simple by construction (maxsets.Result.CMax),
		// so it needs no Min⊆ pass.
		hs := make([]*hypergraph.Hypergraph, arity)
		for a := 0; a < arity; a++ {
			hs[a] = hypergraph.Unchecked(ms.CMax[a])
		}
		lhs, err = hypergraph.TransversalsAll(ctx, hs, opts.Workers, opts.Budget)
		res.LHS = lhs
	}
	// Emitting RHS-major from canonical LHS families is fd.FD.Compare's
	// order already: the cover needs no sort. It stays nil when there is
	// nothing to emit.
	n := 0
	for _, xs := range lhs {
		n += len(xs)
	}
	for a, xs := range lhs {
		for _, x := range xs {
			if x == attrset.Single(a) {
				continue
			}
			if res.FDs == nil {
				res.FDs = make(fd.Cover, 0, n)
			}
			res.FDs = append(res.FDs, fd.FD{LHS: x, RHS: a})
		}
	}
	res.Stats.LHS = time.Since(t0)
	return err
}

// buildArmstrong implements step 5 with the configured fallback policy:
// only a failed Proposition 1 falls back to the synthetic construction, a
// dictionary read error fails the step.
func buildArmstrong(r armstrong.Source, maxSets attrset.Family, mode ArmstrongMode) (*relation.Relation, bool, error) {
	switch mode {
	case ArmstrongSynthetic:
		arm, err := armstrong.Synthetic(maxSets, r.Names())
		return arm, true, err
	case ArmstrongRealWorld:
		arm, err := armstrong.RealWorld(r, maxSets)
		return arm, false, err
	case ArmstrongRealWorldOrSynthetic:
		arm, err := armstrong.RealWorld(r, maxSets)
		var short *armstrong.ErrNotEnoughValues
		if !errors.As(err, &short) {
			return arm, false, err
		}
		arm, err = armstrong.Synthetic(maxSets, r.Names())
		return arm, true, err
	default:
		return nil, false, fmt.Errorf("core: unknown armstrong mode %d", mode)
	}
}
