// Command depminer discovers minimal functional dependencies and a
// real-world Armstrong relation from a CSV relation — the full Dep-Miner
// pipeline of the paper — or runs one of the comparison miners over the
// same input: FastFDs or TANE (exact or, with -epsilon, approximate
// dependencies).
//
// Usage:
//
//	depminer [flags] file.csv
//
// With no file, the paper's 7-tuple running example is used. A flag that
// applies to other miners than the chosen -algo is an error.
//
// Exit codes: 0 success, 1 bad input or error, 3 budget/deadline exceeded
// (partial results are printed first), 130 interrupted.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/cli"
)

// config carries the resolved command-line configuration.
type config struct {
	noHeader      bool
	algo          string
	armstrong     string
	timeout       time.Duration
	budget        int64
	workers       int
	maxAgreeBytes int64
	spillDir      string
	epsilon       float64
	maxLHS        int
	partBytes     int64
	stats         bool
	showKeys      bool
	useNames      bool
	stream        bool
	snapshot      bool
	args          []string
	// out buffers everything run prints on stdout: a cover of millions
	// of FDs is one write per buffer, not one per line.
	out *bufio.Writer
}

func main() {
	cfg := config{}
	flag.BoolVar(&cfg.noHeader, "no-header", false, "treat the first CSV record as data, not attribute names")
	flag.StringVar(&cfg.algo, "algo", "depminer", "miner: depminer (alg. 2), depminer2 (alg. 3), fastfds (alg. 3 agree sets, depth-first lhs search), tane (levelwise lattice search)")
	flag.StringVar(&cfg.armstrong, "armstrong", "", "armstrong relation: auto (the default: real-world with synthetic fallback), real, synthetic, none; not with tane")
	flag.BoolVar(&cfg.stream, "stream", false, "one-pass mode: encode the CSV, drop its values, keep only the stripped partitions; no Armstrong relation or -keys")
	flag.BoolVar(&cfg.snapshot, "snapshot", false, "treat the input file as a durable DMSNAP1 snapshot and stream it column by column (out-of-core read path)")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Hour, "deadline for discovery (the paper's cutoff); on expiry partial results are printed and the exit code is 3")
	flag.Int64Var(&cfg.budget, "budget", 0, "resource budget in work units (couples + agree sets + candidate-level widths; tane: lattice nodes + materialised partition bytes); 0 = unlimited; on overrun partial results are printed and the exit code is 3")
	flag.IntVar(&cfg.workers, "workers", 0, "worker-pool width for the parallel pipeline phases: 0 = all cores, 1 = sequential (output is identical for every value)")
	flag.Int64Var(&cfg.maxAgreeBytes, "max-agree-bytes", 0, "resident agree-set bytes per worker pool before sorted runs spill to disk (0 = in-memory; the cover is identical either way); not with tane")
	flag.StringVar(&cfg.spillDir, "spill-dir", "", "directory for spilled agree-set runs (empty = system temp dir); not with tane")
	flag.Float64Var(&cfg.epsilon, "epsilon", 0, "tane: approximate-dependency threshold g3 ≤ ε (0 = exact)")
	flag.IntVar(&cfg.maxLHS, "max-lhs", 0, "tane: bound on left-hand-side size (0 = unbounded)")
	flag.Int64Var(&cfg.partBytes, "max-partition-bytes", 0, "tane: cap on resident partition bytes, -keys included (0 = unbounded); over the cap partitions are evicted and recomputed on demand")
	flag.BoolVar(&cfg.stats, "stats", false, "print per-phase timings and counters")
	flag.BoolVar(&cfg.showKeys, "keys", false, "also print the relation's minimal candidate keys")
	flag.BoolVar(&cfg.useNames, "names", true, "print FDs with attribute names (false: letter notation)")
	flag.Parse()
	cfg.args = flag.Args()

	cli.Main("depminer", cfg.run)
}

// check rejects negative limits and flag combinations the chosen miner
// or source cannot honour. A flag that applies to other miners only is
// an error, never silently ignored.
func (cfg *config) check() error {
	tane := cfg.algo == "tane"
	switch {
	case cfg.timeout < 0 || cfg.budget < 0:
		return fmt.Errorf("-timeout and -budget must not be negative (0 = unlimited)")
	case cfg.stream && cfg.showKeys:
		return fmt.Errorf("-stream is single-use: discovery consumes it, leaving nothing for -keys")
	case !tane && (cfg.epsilon != 0 || cfg.maxLHS != 0 || cfg.partBytes != 0):
		return fmt.Errorf("-epsilon, -max-lhs and -max-partition-bytes are -algo tane options")
	case tane && cfg.armstrong != "" && cfg.armstrong != "none":
		return fmt.Errorf("-armstrong is not a tane option: TANE builds no Armstrong relation")
	case tane && (cfg.maxAgreeBytes != 0 || cfg.spillDir != ""):
		return fmt.Errorf("-max-agree-bytes and -spill-dir are not tane options: TANE computes no agree sets")
	}
	return nil
}

// open returns the input the flags name: a durable DMSNAP1 snapshot
// streamed column by column (-snapshot), a single-use one-pass CSV stream
// (-stream), or the materialised relation r (the default; the paper's
// example without a file). r is nil on the two streamed sources.
func (cfg *config) open() (src depminer.Source, r *depminer.Relation, err error) {
	switch {
	case len(cfg.args) > 1:
		return nil, nil, fmt.Errorf("expected at most one input file, got %d", len(cfg.args))
	case len(cfg.args) == 0 && (cfg.stream || cfg.snapshot):
		return nil, nil, fmt.Errorf("-stream and -snapshot require an input file")
	case len(cfg.args) == 0:
		fmt.Fprintln(cfg.out, "(no input file: using the paper's running example)")
		r = depminer.PaperExample()
		return r, r, nil
	case cfg.snapshot:
		sr, err := depminer.OpenSnapshot(cfg.args[0])
		return sr, nil, err
	}
	f, err := os.Open(cfg.args[0])
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if cfg.stream {
		src, err = depminer.StreamCSV(f, !cfg.noHeader)
		return src, nil, err
	}
	r, err = depminer.LoadCSV(f, !cfg.noHeader)
	return r, r, err
}

func (cfg *config) run(ctx context.Context) error {
	// cli.Main exits as soon as run returns, so the flush must happen
	// here, on every path.
	cfg.out = bufio.NewWriter(os.Stdout)
	defer cfg.out.Flush()
	if err := cfg.check(); err != nil {
		return err
	}
	src, r, err := cfg.open()
	if err != nil {
		return err
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}

	budget := cli.NewBudget(cfg.timeout, cfg.budget)
	mine := cfg.discover
	if cfg.algo == "tane" {
		mine = cfg.discoverTANE
	}
	printStats, rerr := mine(ctx, src, budget)
	if printStats == nil {
		return rerr
	}

	if cfg.showKeys && rerr == nil {
		kr, kerr := depminer.DiscoverKeys(ctx, src, depminer.KeysOptions{Workers: cfg.workers, MaxPartitionBytes: cfg.partBytes, Budget: budget})
		if !printable(kr != nil && kr.Partial, kerr, "keys") {
			return kerr
		}
		rerr = kerr
		fmt.Fprintf(cfg.out, "\n%d minimal candidate keys:\n", len(kr.Keys))
		for _, k := range kr.Keys {
			fmt.Fprintln(cfg.out, "  ("+k.Names(src.Names(), ", ")+")")
		}
	}

	if cfg.stats {
		if r != nil {
			fmt.Fprintf(cfg.out, "\ncolumn profile:\n%s", r.SummaryString())
		}
		printStats()
		if budget != nil {
			fmt.Fprintf(cfg.out, "budget: used=%d\n", budget.Used())
		}
	}
	return rerr
}

// printable reports whether a run that returned err still has results to
// print: none on failure, partial ones (noted on stderr) after a budget
// or deadline cutoff.
func printable(partial bool, err error, what string) bool {
	if err != nil && !partial {
		return false
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "depminer: partial %s (%v)\n", what, err)
	}
	return true
}

// discover runs one of the Dep-Miner family over src and prints its cover
// and Armstrong relation. It returns the printer of its -stats lines, nil
// when there is nothing to print.
func (cfg *config) discover(ctx context.Context, src depminer.Source, budget *depminer.Budget) (func(), error) {
	opts := depminer.Options{
		Workers:       cfg.workers,
		Budget:        budget,
		MaxAgreeBytes: cfg.maxAgreeBytes,
		SpillDir:      cfg.spillDir,
	}
	switch cfg.algo {
	case "depminer":
		opts.Algorithm = depminer.DepMiner
	case "depminer2":
		opts.Algorithm = depminer.DepMiner2
	case "fastfds":
		opts.Algorithm = depminer.FastFDs
	default:
		return nil, fmt.Errorf("unknown -algo %q", cfg.algo)
	}
	switch cfg.armstrong {
	case "", "auto":
		opts.Armstrong = depminer.ArmstrongRealWorldOrSynthetic
	case "real":
		opts.Armstrong = depminer.ArmstrongRealWorld
	case "synthetic":
		opts.Armstrong = depminer.ArmstrongSynthetic
	case "none":
		opts.Armstrong = depminer.ArmstrongNone
	default:
		return nil, fmt.Errorf("unknown -armstrong %q", cfg.armstrong)
	}

	res, err := depminer.Discover(ctx, src, opts)
	if !printable(res != nil && res.Partial, err, "results") {
		return nil, err
	}
	kind := "minimal functional dependencies"
	if opts.Algorithm == depminer.FastFDs {
		kind += " (FastFDs)"
	}
	cfg.printCover(src, res.FDs, kind)

	if res.Armstrong != nil {
		kind := "real-world"
		if res.ArmstrongSynthetic {
			kind = "synthetic (real-world construction impossible: not enough distinct values)"
		}
		fmt.Fprintf(cfg.out, "\nArmstrong relation (%s, %d tuples — 1:%d sample):\n\n",
			kind, res.Armstrong.Rows(), max(1, src.Rows()/max(1, res.Armstrong.Rows())))
		fmt.Fprint(cfg.out, res.Armstrong.String())
	}

	return func() {
		fmt.Fprintf(cfg.out, "\nphases: partitions=%v agree-sets=%v max-sets=%v lhs=%v armstrong=%v\n",
			res.Stats.Partition, res.Stats.AgreeSets, res.Stats.MaxSets,
			res.Stats.LHS, res.Stats.Armstrong)
		fmt.Fprintf(cfg.out, "couples=%d |ag(r)|=%d |MAX(dep(r))|=%d\n",
			res.Couples, len(res.AgreeSets), len(res.MaxSets))
		if opts.Algorithm == depminer.FastFDs {
			fmt.Fprintf(cfg.out, "DFS nodes=%d\n", res.DFSNodes)
		}
		if sp := res.Stats.Spill; cfg.maxAgreeBytes > 0 || sp.RunsSpilled > 0 {
			fmt.Fprintf(cfg.out, "spill: runs=%d sets=%d bytes=%d merged=%d blocks=%d\n",
				sp.RunsSpilled, sp.SpilledSets, sp.SpilledBytes, sp.MergedRuns, sp.ReadBlocks)
		}
	}, err
}

// discoverTANE runs the TANE baseline (Huhtala et al. 1998) over src —
// exact minimal dependencies, or approximate ones with -epsilon — and
// prints its cover. It returns the printer of its -stats lines, nil when
// there is nothing to print.
func (cfg *config) discoverTANE(ctx context.Context, src depminer.Source, budget *depminer.Budget) (func(), error) {
	res, err := depminer.DiscoverTANE(ctx, src, depminer.TANEOptions{
		Epsilon:           cfg.epsilon,
		MaxLHS:            cfg.maxLHS,
		Workers:           cfg.workers,
		MaxPartitionBytes: cfg.partBytes,
		Budget:            budget,
	})
	if !printable(res != nil && res.Partial, err, "results") {
		return nil, err
	}
	kind := "minimal functional dependencies"
	if cfg.epsilon > 0 {
		kind = fmt.Sprintf("approximate dependencies (g3 ≤ %v)", cfg.epsilon)
	}
	cfg.printCover(src, res.FDs, kind)

	return func() {
		fmt.Fprintf(cfg.out, "\nlattice: %d nodes over %d levels, %v elapsed\n",
			res.LatticeNodes, res.Levels, res.Elapsed)
		st := res.Stats
		fmt.Fprintf(cfg.out, "partitions: %d hits, %d misses, %d evictions, %d recomputes; peak %d B resident (+%d B roots), cap %d B\n",
			st.Hits, st.Misses, st.Evictions, st.Recomputes, st.PeakBytes, st.RootBytes, st.CapBytes)
	}, err
}

// printCover prints the result header and the cover, one FD per line.
func (cfg *config) printCover(src depminer.Source, cover depminer.Cover, kind string) {
	fmt.Fprintf(cfg.out, "%d tuples × %d attributes → %d %s\n\n", src.Rows(), src.Arity(), len(cover), kind)
	for _, f := range cover {
		if cfg.useNames {
			fmt.Fprintln(cfg.out, f.Names(src.Names()))
		} else {
			fmt.Fprintln(cfg.out, f.String())
		}
	}
}
