// Package depminer is a from-scratch Go implementation of Dep-Miner
// (Lopes, Petit, Lakhal: "Efficient Discovery of Functional Dependencies
// and Armstrong Relations", EDBT 2000): discovery of all minimal
// non-trivial functional dependencies of a relation instance, combined —
// at no extra cost — with the construction of a real-world Armstrong
// relation, a small sample of the original data satisfying exactly the
// same dependencies.
//
// The package also ships the TANE baseline the paper compares against
// (including its approximate-dependency mode), the synthetic benchmark
// generator of the paper's evaluation, and schema normalisation (3NF/BCNF)
// for the logical-tuning workflow the paper motivates.
//
// # Quick start
//
//	r, err := depminer.LoadCSVFile("employees.csv", true)
//	if err != nil { ... }
//	res, err := depminer.Discover(ctx, r, depminer.Options{})
//	if err != nil { ... }
//	for _, f := range res.FDs {
//	    fmt.Println(f.Names(r.Names()))
//	}
//	fmt.Println(res.Armstrong) // the sample relation
//
// The heavy lifting lives in the internal packages (one per subsystem of
// the paper — see DESIGN.md); this package is the stable surface.
package depminer

import (
	"context"
	"io"

	"repro/internal/armstrong"
	"repro/internal/attrset"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/durable"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/incremental"
	"repro/internal/ind"
	"repro/internal/normalize"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/tane"
)

// Relation is a dictionary-encoded in-memory relation instance.
type Relation = relation.Relation

// AttrSet is a set of attribute (column) indices, the currency of all
// discovery results.
type AttrSet = attrset.Set

// AttrSetFamily is an ordered collection of attribute sets.
type AttrSetFamily = attrset.Family

// FD is a functional dependency X → A with a single right-hand-side
// attribute.
type FD = fd.FD

// Cover is a list of FDs interpreted as a dependency set.
type Cover = fd.Cover

// MaxAttrs is the largest schema width supported (attribute sets are
// fixed-width bit vectors).
const MaxAttrs = attrset.MaxAttrs

// NewRelation builds a relation from attribute names and string rows.
func NewRelation(names []string, rows [][]string) (*Relation, error) {
	return relation.FromRows(names, rows)
}

// LoadCSV reads a relation from CSV data. If header is true, the first
// record names the attributes.
func LoadCSV(r io.Reader, header bool) (*Relation, error) {
	return relation.Load(r, header)
}

// LoadCSVFile reads a relation from a CSV file.
func LoadCSVFile(path string, header bool) (*Relation, error) {
	return relation.LoadFile(path, header)
}

// PaperExample returns the 7-tuple employee relation used as the running
// example throughout the Dep-Miner paper.
func PaperExample() *Relation { return relation.PaperExample() }

// Algorithm selects the miner: the agree-set computation of the Dep-Miner
// pipeline, or FastFDs' step 3.
type Algorithm = core.AgreeAlgorithm

const (
	// DepMiner is Algorithm 2 of the paper (couples of maximal
	// equivalence classes) — the evaluation's "Dep-Miner".
	DepMiner = core.AgreeCouples
	// DepMiner2 is Algorithm 3 (equivalence-class identifier
	// intersection) — the evaluation's "Dep-Miner 2", preferable on
	// large or highly correlated relations.
	DepMiner2 = core.AgreeIdentifiers
	// FastFDs mines the same cover with a depth-first search over
	// difference sets (Wyss et al. 2001) in place of the levelwise
	// transversal search — preferable when the levelwise candidate levels
	// grow too wide. Steps 1–2 are Dep-Miner 2's;
	// Result.DFSNodes counts the search.
	FastFDs = core.FastFDs
)

// ArmstrongMode selects how the Armstrong relation is built.
type ArmstrongMode = core.ArmstrongMode

const (
	// ArmstrongRealWorldOrSynthetic builds a real-world Armstrong
	// relation, falling back to the synthetic integer construction if
	// some attribute lacks distinct values (the default).
	ArmstrongRealWorldOrSynthetic = core.ArmstrongRealWorldOrSynthetic
	// ArmstrongRealWorld fails if the real-world construction is
	// impossible (paper Proposition 1).
	ArmstrongRealWorld = core.ArmstrongRealWorld
	// ArmstrongSynthetic always uses the integer construction.
	ArmstrongSynthetic = core.ArmstrongSynthetic
	// ArmstrongNone skips the Armstrong relation.
	ArmstrongNone = core.ArmstrongNone
)

// Options configure Discover. The zero value runs the paper's Dep-Miner
// configuration on all cores and builds a real-world Armstrong relation
// with synthetic fallback. Options.Workers caps the worker pool (1 runs
// the sequential reference path); the Result is byte-identical for every
// worker count.
type Options = core.Options

// Limits bound a governed run: a wall-clock Deadline and/or a Units
// budget (a shared pool charged in each phase's natural units — couples,
// agree sets, candidate-level widths, DFS nodes). Zero values mean
// unlimited.
type Limits = guard.Limits

// Budget is a shared, concurrency-safe resource budget. Attach one to
// Options.Budget (and friends) to govern a run; on overrun the miners
// return the work completed so far as a partial result together with a
// typed error (ErrBudget or ErrDeadline). A nil Budget is valid and means
// ungoverned.
type Budget = guard.Budget

// NewBudget creates a budget from limits.
func NewBudget(l Limits) *Budget { return guard.New(l) }

// Typed failure sentinels, matched with errors.Is. Governed runs that
// trip a limit return the partial result alongside an error wrapping
// ErrBudget or ErrDeadline; contained panics wrap ErrPanic; malformed
// Options are rejected up front with an error wrapping ErrInvalidOptions.
var (
	ErrBudget         = guard.ErrBudget
	ErrDeadline       = guard.ErrDeadline
	ErrPanic          = guard.ErrPanic
	ErrInvalidOptions = core.ErrInvalidOptions
)

// Result is the outcome of a discovery run: the canonical FD cover, the
// intermediate set families (agree sets, maximal sets, per-attribute
// LHSs), the Armstrong relation and per-phase timings.
type Result = core.Result

// Source is what Discover reads: dictionary-coded columns, one at a time,
// with codes dense and in first-occurrence order (see
// partition.ColumnSource). A *Relation is one; StreamCSV and OpenSnapshot
// return the others.
type Source = partition.ColumnSource

// Discover runs the Dep-Miner pipeline over src: agree sets from stripped
// partitions, maximal sets, minimal transversals, minimal FDs, and — when
// src keeps its dictionaries, as a *Relation and a *SnapshotReader do —
// the Armstrong relation. Over a StreamCSV source Result.Armstrong is nil.
func Discover(ctx context.Context, src Source, opts Options) (*Result, error) {
	return core.Run(ctx, core.Input{Source: src}, opts)
}

// TANEOptions configure DiscoverTANE.
type TANEOptions = tane.Options

// TANEResult is the outcome of a TANE run.
type TANEResult = tane.Result

// DiscoverTANE runs the TANE baseline (Huhtala et al. 1998) over src:
// levelwise lattice search with partition products and rhs⁺ pruning. With
// Epsilon > 0 it discovers approximate dependencies (g₃ error ≤ ε).
func DiscoverTANE(ctx context.Context, src Source, opts TANEOptions) (*TANEResult, error) {
	return tane.Run(ctx, src, opts)
}

// RealWorldArmstrong builds a real-world Armstrong relation for the given
// relation and maximal sets (as found in Result.MaxSets). It fails with a
// descriptive error when paper Proposition 1 does not hold.
func RealWorldArmstrong(r *Relation, maxSets AttrSetFamily) (*Relation, error) {
	return armstrong.RealWorld(r, maxSets)
}

// SyntheticArmstrong builds the classical integer Armstrong relation for
// the given maximal sets.
func SyntheticArmstrong(maxSets AttrSetFamily, names []string) (*Relation, error) {
	return armstrong.Synthetic(maxSets, names)
}

// GenerateSpec describes a synthetic benchmark relation (paper §5.2):
// |R| attributes, |r| tuples, correlation c (the rate of identical
// values).
type GenerateSpec = datagen.Spec

// Generate materialises a deterministic synthetic benchmark relation.
func Generate(spec GenerateSpec) (*Relation, error) {
	return datagen.Generate(spec)
}

// GenerateCSV streams the relation Generate would produce directly to w
// as CSV, holding one row in memory — byte-identical to Generate followed
// by Relation.WriteCSV, at O(|R|) memory for any |r|. This is how
// multi-gigabyte out-of-core fixtures are produced.
func GenerateCSV(ctx context.Context, spec GenerateSpec, w io.Writer) error {
	return datagen.Stream(ctx, spec, w)
}

// PlantedSpec describes a synthetic relation with known embedded FDs, for
// recall testing and demos: each planted X → A makes column A a
// deterministic function of the X columns.
type PlantedSpec = datagen.PlantedSpec

// GeneratePlanted materialises a relation with the spec's planted FDs
// holding by construction (acyclic plants only).
func GeneratePlanted(spec PlantedSpec) (*Relation, error) {
	return datagen.GeneratePlanted(spec)
}

// Schema is a fragment of a normalised schema.
type Schema = normalize.Schema

// Decomposition is the result of a normalisation.
type Decomposition = normalize.Decomposition

// SynthesizeThreeNF synthesises a lossless-join, dependency-preserving
// 3NF decomposition from a discovered cover.
func SynthesizeThreeNF(cover Cover, arity int) *Decomposition {
	return normalize.ThreeNF(cover, arity)
}

// DecomposeBCNF computes a lossless-join BCNF decomposition from a
// discovered cover. Exponential in schema width; capped at 24 attributes.
func DecomposeBCNF(cover Cover, arity int) (*Decomposition, error) {
	return normalize.BCNF(cover, arity)
}

// Verify reports whether every FD of the cover holds in the relation,
// returning the first violated FD otherwise.
func Verify(r *Relation, c Cover) (bool, FD) {
	return fd.AllHold(r, c)
}

// ParseFD parses a textual dependency like "depnum, year -> empnum",
// resolving attribute names against the schema. An empty left-hand side
// denotes a constant column.
func ParseFD(line string, names []string) (FD, error) {
	return fd.ParseFD(line, names)
}

// ParseCover reads one FD per line (blank lines and '#' comments
// skipped).
func ParseCover(r io.Reader, names []string) (Cover, error) {
	return fd.ParseCover(r, names)
}

// IND is an inclusion dependency between attribute sequences of (possibly
// different) relations — the foreign-key shape.
type IND = ind.IND

// INDOptions configure inclusion-dependency discovery.
type INDOptions = ind.Options

// INDResult is the outcome of inclusion-dependency discovery.
type INDResult = ind.Result

// DiscoverINDs finds unary and n-ary inclusion dependencies within and
// across the given relations (KMRS92-style): the foreign keys joining the
// fragments a normalisation produces.
func DiscoverINDs(ctx context.Context, rels []*Relation, opts INDOptions) (*INDResult, error) {
	return ind.Discover(ctx, rels, opts)
}

// KeysResult is the outcome of candidate-key discovery.
type KeysResult = tane.KeysResult

// KeysOptions configure candidate-key discovery.
type KeysOptions = tane.KeysOptions

// DiscoverKeys finds the minimal candidate keys (minimal unique column
// combinations) of the relation instance src supplies with a levelwise
// partition search over TANE's lattice. For duplicate-free relations
// these coincide with the keys of the discovered FD cover.
func DiscoverKeys(ctx context.Context, src Source, opts KeysOptions) (*KeysResult, error) {
	return tane.Keys(ctx, src, opts)
}

// IncrementalMiner maintains FD discovery state under tuple insertions:
// ag(r) is updated per insert, and Discover re-derives the Result — the
// cover, MAX(dep(r)) and the Armstrong relation — from it on demand, at
// a cost independent of |r|.
type IncrementalMiner = incremental.Miner

// NewIncrementalMiner creates an empty incremental miner for a schema.
func NewIncrementalMiner(names []string) (*IncrementalMiner, error) {
	return incremental.New(names)
}

// IncrementalFromRelation creates an incremental miner pre-loaded with a
// relation's tuples, seeded by one agree-set sweep. The miner adopts r's
// columns and dictionaries; r itself never changes.
func IncrementalFromRelation(r *Relation) (*IncrementalMiner, error) {
	st, err := relation.StoreOf(r)
	if err != nil {
		return nil, err
	}
	return incremental.FromStore(context.Background(), st, 0)
}

// StreamCSV reads CSV data into a single-use Source in one pass. The
// cell values are dropped once encoded, and each column is released as
// discovery partitions it, so only the stripped partitions stay resident;
// a second run over the same source fails, and no Armstrong relation is
// built from it.
func StreamCSV(r io.Reader, header bool) (Source, error) {
	return relation.NewCSVSource(r, header)
}

// SnapshotReader streams a durable DMSNAP1 snapshot column by column; it
// is a Source.
type SnapshotReader = durable.SnapshotReader

// OpenSnapshot opens and verifies a durable DMSNAP1 snapshot file as a
// Source whose columns are read from disk on demand, so the relation is
// never materialised — combined with Options.MaxAgreeBytes this is the
// fully out-of-core path. It can be read any number of times, and the
// Armstrong relation reads only the first few values of each dictionary.
// The caller must Close it.
func OpenSnapshot(path string) (*SnapshotReader, error) {
	return durable.OpenSnapshotStream(path)
}
