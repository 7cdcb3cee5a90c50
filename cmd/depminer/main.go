// Command depminer discovers minimal functional dependencies and a
// real-world Armstrong relation from a CSV relation — the full Dep-Miner
// pipeline of the paper.
//
// Usage:
//
//	depminer [flags] file.csv
//
// With no file, the paper's 7-tuple running example is used.
//
// Exit codes: 0 success, 1 bad input or error, 3 budget/deadline exceeded
// (partial results are printed first), 130 interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
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
	maxCouples    int
	workers       int
	maxAgreeBytes int64
	spillDir      string
	stats         bool
	showKeys      bool
	useNames      bool
	args          []string
}

func main() {
	cfg := config{}
	var stream, snapshot bool
	flag.BoolVar(&cfg.noHeader, "no-header", false, "treat the first CSV record as data, not attribute names")
	flag.StringVar(&cfg.algo, "algo", "depminer", "agree-set algorithm: depminer (alg. 2), depminer2 (alg. 3), fastfds, naive")
	flag.StringVar(&cfg.armstrong, "armstrong", "auto", "armstrong relation: auto (real-world with synthetic fallback), real, synthetic, none")
	flag.BoolVar(&stream, "stream", false, "one-pass bounded-memory mode: build stripped partitions while reading; no Armstrong relation")
	flag.BoolVar(&snapshot, "snapshot", false, "treat the input file as a durable DMSNAP1 snapshot and stream it column by column (out-of-core read path)")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Hour, "deadline for discovery (the paper's cutoff); on expiry partial results are printed and the exit code is 3")
	flag.Int64Var(&cfg.budget, "budget", 0, "resource budget in work units (couples + agree sets + candidate-level widths); 0 = unlimited; on overrun partial results are printed and the exit code is 3")
	flag.IntVar(&cfg.maxCouples, "max-couples", 0, "couple threshold above which -algo depminer degrades to depminer2 (0 = never degrade)")
	flag.IntVar(&cfg.workers, "workers", 0, "worker-pool width for the parallel pipeline phases: 0 = all cores, 1 = sequential (output is identical for every value)")
	flag.Int64Var(&cfg.maxAgreeBytes, "max-agree-bytes", 0, "resident agree-set bytes per worker pool before sorted runs spill to disk (0 = in-memory; the cover is identical either way)")
	flag.StringVar(&cfg.spillDir, "spill-dir", "", "directory for spilled agree-set runs (empty = system temp dir)")
	flag.BoolVar(&cfg.stats, "stats", false, "print per-phase timings and counters")
	flag.BoolVar(&cfg.showKeys, "keys", false, "also print the relation's minimal candidate keys")
	flag.BoolVar(&cfg.useNames, "names", true, "print FDs with attribute names (false: letter notation)")
	flag.Parse()
	cfg.args = flag.Args()

	cli.Main("depminer", func(ctx context.Context) error {
		if snapshot {
			return cfg.runSnapshot(ctx)
		}
		if stream {
			return cfg.runStreamed(ctx)
		}
		return cfg.run(ctx)
	})
}

// newBudget builds the run's budget from -timeout and -budget. A zero
// timeout means no deadline; the guard deadline (rather than a context
// deadline) lets an over-time run surface its partial results.
func (cfg *config) newBudget() *depminer.Budget {
	l := depminer.Limits{Units: cfg.budget}
	if cfg.timeout > 0 {
		l.Deadline = time.Now().Add(cfg.timeout)
	}
	if l.Units == 0 && l.Deadline.IsZero() {
		return nil
	}
	return depminer.NewBudget(l)
}

// algoOption maps -algo to the agree-set algorithm for the streamed
// paths, which support the two Dep-Miner variants only.
func algoOption(algo string) (depminer.Algorithm, error) {
	switch algo {
	case "depminer":
		return depminer.DepMiner, nil
	case "depminer2":
		return depminer.DepMiner2, nil
	default:
		return 0, fmt.Errorf("this mode supports -algo depminer or depminer2, not %q", algo)
	}
}

// runSnapshot is the fully out-of-core path: a durable DMSNAP1 snapshot
// is streamed column by column into stripped partitions, and with
// -max-agree-bytes the agree-set phase spills sorted runs to disk — the
// relation is never resident.
func (cfg *config) runSnapshot(ctx context.Context) error {
	if len(cfg.args) != 1 {
		return fmt.Errorf("-snapshot requires exactly one snapshot file")
	}
	opts := depminer.Options{
		Workers:       cfg.workers,
		Budget:        cfg.newBudget(),
		MaxCouples:    cfg.maxCouples,
		MaxAgreeBytes: cfg.maxAgreeBytes,
		SpillDir:      cfg.spillDir,
	}
	var err error
	if opts.Algorithm, err = algoOption(cfg.algo); err != nil {
		return err
	}
	res, names, rerr := depminer.DiscoverFromSnapshot(ctx, cfg.args[0], opts)
	if rerr != nil && (res == nil || !res.Partial) {
		return rerr
	}
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "depminer: partial results (%v)\n", rerr)
	}
	fmt.Printf("%d attributes → %d minimal functional dependencies\n\n",
		len(names), len(res.FDs))
	for _, fdep := range res.FDs {
		if cfg.useNames {
			fmt.Println(fdep.Names(names))
		} else {
			fmt.Println(fdep.String())
		}
	}
	if cfg.stats {
		sp := res.Stats.Spill
		fmt.Printf("\ncouples=%d |ag(r)|=%d |MAX(dep(r))|=%d\n",
			res.Couples, len(res.AgreeSets), len(res.MaxSets))
		fmt.Printf("spill: runs=%d sets=%d bytes=%d merged=%d blocks=%d\n",
			sp.RunsSpilled, sp.SpilledSets, sp.SpilledBytes, sp.MergedRuns, sp.ReadBlocks)
	}
	return rerr
}

// runStreamed is the bounded-memory path: CSV → stripped partitions → FDs.
func (cfg *config) runStreamed(ctx context.Context) error {
	if len(cfg.args) != 1 {
		return fmt.Errorf("-stream requires exactly one input file")
	}
	f, err := os.Open(cfg.args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := depminer.StreamCSV(f, !cfg.noHeader)
	if err != nil {
		return err
	}
	opts := depminer.Options{
		Workers:       cfg.workers,
		Budget:        cfg.newBudget(),
		MaxCouples:    cfg.maxCouples,
		MaxAgreeBytes: cfg.maxAgreeBytes,
		SpillDir:      cfg.spillDir,
	}
	if opts.Algorithm, err = algoOption(cfg.algo); err != nil {
		return err
	}
	res, rerr := depminer.DiscoverStreamed(ctx, db, opts)
	if rerr != nil && (res == nil || !res.Partial) {
		return rerr
	}
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "depminer: partial results (%v)\n", rerr)
	}
	fmt.Printf("%d tuples × %d attributes → %d minimal functional dependencies\n\n",
		db.DB.NumRows, db.DB.Arity(), len(res.FDs))
	for _, fdep := range res.FDs {
		if cfg.useNames {
			fmt.Println(fdep.Names(db.Names))
		} else {
			fmt.Println(fdep.String())
		}
	}
	return rerr
}

func (cfg *config) run(ctx context.Context) error {
	var r *depminer.Relation
	var err error
	switch len(cfg.args) {
	case 0:
		r = depminer.PaperExample()
		fmt.Println("(no input file: using the paper's running example)")
	case 1:
		r, err = depminer.LoadCSVFile(cfg.args[0], !cfg.noHeader)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("expected at most one input file, got %d", len(cfg.args))
	}

	budget := cfg.newBudget()
	if cfg.algo == "fastfds" {
		res, rerr := depminer.DiscoverFastFDs(ctx, r, depminer.FastFDsOptions{Budget: budget})
		if rerr != nil && (res == nil || !res.Partial) {
			return rerr
		}
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "depminer: partial results (%v)\n", rerr)
		}
		fmt.Printf("%d tuples × %d attributes → %d minimal functional dependencies (FastFDs)\n\n",
			r.Rows(), r.Arity(), len(res.FDs))
		for _, f := range res.FDs {
			if cfg.useNames {
				fmt.Println(f.Names(r.Names()))
			} else {
				fmt.Println(f.String())
			}
		}
		if cfg.stats {
			fmt.Printf("\nDFS nodes=%d elapsed=%v\n", res.Nodes, res.Elapsed)
		}
		return rerr
	}

	opts := depminer.Options{
		Workers:       cfg.workers,
		Budget:        budget,
		MaxCouples:    cfg.maxCouples,
		MaxAgreeBytes: cfg.maxAgreeBytes,
		SpillDir:      cfg.spillDir,
	}
	switch cfg.algo {
	case "depminer":
		opts.Algorithm = depminer.DepMiner
	case "depminer2":
		opts.Algorithm = depminer.DepMiner2
	case "naive":
		opts.Algorithm = depminer.NaiveBaseline
	default:
		return fmt.Errorf("unknown -algo %q", cfg.algo)
	}
	switch cfg.armstrong {
	case "auto":
		opts.Armstrong = depminer.ArmstrongRealWorldOrSynthetic
	case "real":
		opts.Armstrong = depminer.ArmstrongRealWorld
	case "synthetic":
		opts.Armstrong = depminer.ArmstrongSynthetic
	case "none":
		opts.Armstrong = depminer.ArmstrongNone
	default:
		return fmt.Errorf("unknown -armstrong %q", cfg.armstrong)
	}

	res, rerr := depminer.Discover(ctx, r, opts)
	if rerr != nil && (res == nil || !res.Partial) {
		return rerr
	}
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "depminer: partial results (%v)\n", rerr)
	}

	for _, note := range res.Notes {
		fmt.Fprintln(os.Stderr, "depminer: note:", note)
	}
	fmt.Printf("%d tuples × %d attributes → %d minimal functional dependencies\n\n",
		r.Rows(), r.Arity(), len(res.FDs))
	for _, f := range res.FDs {
		if cfg.useNames {
			fmt.Println(f.Names(r.Names()))
		} else {
			fmt.Println(f.String())
		}
	}

	if res.Armstrong != nil {
		kind := "real-world"
		if res.ArmstrongSynthetic {
			kind = "synthetic (real-world construction impossible: not enough distinct values)"
		}
		fmt.Printf("\nArmstrong relation (%s, %d tuples — 1:%d sample):\n\n",
			kind, res.Armstrong.Rows(), max(1, r.Rows()/max(1, res.Armstrong.Rows())))
		fmt.Print(res.Armstrong.String())
	}

	if cfg.showKeys && rerr == nil {
		kr, kerr := depminer.DiscoverKeys(ctx, r, depminer.KeysOptions{Budget: budget})
		if kerr != nil && (kr == nil || !kr.Partial) {
			return kerr
		}
		if kerr != nil {
			fmt.Fprintf(os.Stderr, "depminer: partial keys (%v)\n", kerr)
			rerr = kerr
		}
		fmt.Printf("\n%d minimal candidate keys:\n", len(kr.Keys))
		for _, k := range kr.Keys {
			fmt.Println("  (" + k.Names(r.Names(), ", ") + ")")
		}
	}

	if cfg.stats {
		fmt.Printf("\ncolumn profile:\n%s", r.SummaryString())
		fmt.Printf("\nphases: partitions=%v agree-sets=%v max-sets=%v lhs=%v armstrong=%v\n",
			res.Stats.Partition, res.Stats.AgreeSets, res.Stats.MaxSets,
			res.Stats.LHS, res.Stats.Armstrong)
		fmt.Printf("couples=%d chunks=%d |ag(r)|=%d |MAX(dep(r))|=%d\n",
			res.Couples, res.Chunks, len(res.AgreeSets), len(res.MaxSets))
		if sp := res.Stats.Spill; cfg.maxAgreeBytes > 0 || sp.RunsSpilled > 0 {
			fmt.Printf("spill: runs=%d sets=%d bytes=%d merged=%d blocks=%d\n",
				sp.RunsSpilled, sp.SpilledSets, sp.SpilledBytes, sp.MergedRuns, sp.ReadBlocks)
		}
		if budget != nil {
			fmt.Printf("budget: used=%d\n", budget.Used())
		}
	}
	return rerr
}
