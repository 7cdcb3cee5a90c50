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
	stats         bool
	showKeys      bool
	useNames      bool
	stream        bool
	snapshot      bool
	args          []string
}

func main() {
	cfg := config{}
	flag.BoolVar(&cfg.noHeader, "no-header", false, "treat the first CSV record as data, not attribute names")
	flag.StringVar(&cfg.algo, "algo", "depminer", "miner: depminer (alg. 2), depminer2 (alg. 3), fastfds (alg. 3 agree sets, depth-first lhs search), naive")
	flag.StringVar(&cfg.armstrong, "armstrong", "auto", "armstrong relation: auto (real-world with synthetic fallback), real, synthetic, none")
	flag.BoolVar(&cfg.stream, "stream", false, "one-pass mode: encode the CSV, drop its values, keep only the stripped partitions; no Armstrong relation, -keys or naive")
	flag.BoolVar(&cfg.snapshot, "snapshot", false, "treat the input file as a durable DMSNAP1 snapshot and stream it column by column (out-of-core read path; no naive)")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Hour, "deadline for discovery (the paper's cutoff); on expiry partial results are printed and the exit code is 3")
	flag.Int64Var(&cfg.budget, "budget", 0, "resource budget in work units (couples + agree sets + candidate-level widths); 0 = unlimited; on overrun partial results are printed and the exit code is 3")
	flag.IntVar(&cfg.workers, "workers", 0, "worker-pool width for the parallel pipeline phases: 0 = all cores, 1 = sequential (output is identical for every value)")
	flag.Int64Var(&cfg.maxAgreeBytes, "max-agree-bytes", 0, "resident agree-set bytes per worker pool before sorted runs spill to disk (0 = in-memory; the cover is identical either way)")
	flag.StringVar(&cfg.spillDir, "spill-dir", "", "directory for spilled agree-set runs (empty = system temp dir)")
	flag.BoolVar(&cfg.stats, "stats", false, "print per-phase timings and counters")
	flag.BoolVar(&cfg.showKeys, "keys", false, "also print the relation's minimal candidate keys")
	flag.BoolVar(&cfg.useNames, "names", true, "print FDs with attribute names (false: letter notation)")
	flag.Parse()
	cfg.args = flag.Args()

	cli.Main("depminer", cfg.run)
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
		fmt.Println("(no input file: using the paper's running example)")
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
	src, r, err := cfg.open()
	if err != nil {
		return err
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	switch {
	case r == nil && cfg.algo == "naive":
		return fmt.Errorf("-stream and -snapshot keep no rows: -algo naive needs the materialised relation")
	case cfg.stream && cfg.showKeys:
		return fmt.Errorf("-stream is single-use: discovery consumes it, leaving nothing for -keys")
	}

	budget := cfg.newBudget()
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
	case "naive":
		opts.Algorithm = depminer.NaiveBaseline
	case "fastfds":
		opts.Algorithm = depminer.FastFDs
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

	res, rerr := depminer.Discover(ctx, src, opts)
	if rerr != nil && (res == nil || !res.Partial) {
		return rerr
	}
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "depminer: partial results (%v)\n", rerr)
	}

	suffix := ""
	if opts.Algorithm == depminer.FastFDs {
		suffix = " (FastFDs)"
	}
	cfg.printCover(src, res.FDs, suffix)

	if res.Armstrong != nil {
		kind := "real-world"
		if res.ArmstrongSynthetic {
			kind = "synthetic (real-world construction impossible: not enough distinct values)"
		}
		fmt.Printf("\nArmstrong relation (%s, %d tuples — 1:%d sample):\n\n",
			kind, res.Armstrong.Rows(), max(1, src.Rows()/max(1, res.Armstrong.Rows())))
		fmt.Print(res.Armstrong.String())
	}

	if cfg.showKeys && rerr == nil {
		kr, kerr := depminer.DiscoverKeys(ctx, src, depminer.KeysOptions{Budget: budget})
		if kerr != nil && (kr == nil || !kr.Partial) {
			return kerr
		}
		if kerr != nil {
			fmt.Fprintf(os.Stderr, "depminer: partial keys (%v)\n", kerr)
			rerr = kerr
		}
		fmt.Printf("\n%d minimal candidate keys:\n", len(kr.Keys))
		for _, k := range kr.Keys {
			fmt.Println("  (" + k.Names(src.Names(), ", ") + ")")
		}
	}

	if cfg.stats {
		if r != nil {
			fmt.Printf("\ncolumn profile:\n%s", r.SummaryString())
		}
		fmt.Printf("\nphases: partitions=%v agree-sets=%v max-sets=%v lhs=%v armstrong=%v\n",
			res.Stats.Partition, res.Stats.AgreeSets, res.Stats.MaxSets,
			res.Stats.LHS, res.Stats.Armstrong)
		fmt.Printf("couples=%d chunks=%d |ag(r)|=%d |MAX(dep(r))|=%d\n",
			res.Couples, res.Chunks, len(res.AgreeSets), len(res.MaxSets))
		if opts.Algorithm == depminer.FastFDs {
			fmt.Printf("DFS nodes=%d\n", res.DFSNodes)
		}
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

// printCover prints the result header and the cover, one FD per line.
func (cfg *config) printCover(src depminer.Source, cover depminer.Cover, suffix string) {
	fmt.Printf("%d tuples × %d attributes → %d minimal functional dependencies%s\n\n",
		src.Rows(), src.Arity(), len(cover), suffix)
	for _, f := range cover {
		if cfg.useNames {
			fmt.Println(f.Names(src.Names()))
		} else {
			fmt.Println(f.String())
		}
	}
}
