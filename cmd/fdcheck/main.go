// Command fdcheck verifies a file of functional dependencies against a
// CSV relation, and explains implied dependencies.
//
// Usage:
//
//	fdcheck -fds rules.txt data.csv
//
// rules.txt holds one dependency per line ("customer -> city"; '#'
// comments allowed). Each rule is checked directly against the data; for
// rules that fail, fdcheck reports a violating pair of tuples. With
// -explain, rules that hold are additionally explained from the
// discovered canonical cover (a derivation chain of minimal FDs).
//
// Exit codes: 0 all rules hold, 1 bad input or error, 2 some rules are
// violated, 3 budget/deadline exceeded during -explain discovery, 130
// interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/cli"
)

// errRulesViolated distinguishes "some rules failed" (exit 2) from
// operational errors (exit 1).
var errRulesViolated = errors.New("some rules are violated")

func main() {
	var (
		fdsPath  = flag.String("fds", "", "file of dependencies to check (required)")
		noHeader = flag.Bool("no-header", false, "treat the first CSV record as data")
		explain  = flag.Bool("explain", false, "derive holding rules from the discovered minimal cover")
		timeout  = flag.Duration("timeout", 2*time.Hour, "discovery deadline for -explain")
		budget   = flag.Int64("budget", 0, "resource budget in work units for -explain discovery (0 = unlimited)")
	)
	flag.Parse()
	cli.Main("fdcheck", func(ctx context.Context) error {
		err := run(ctx, *fdsPath, *noHeader, *explain, *timeout, *budget, flag.Args())
		if errors.Is(err, errRulesViolated) {
			return cli.WithExitCode(err, cli.ExitChecked)
		}
		return err
	})
}

func run(ctx context.Context, fdsPath string, noHeader, explain bool, timeout time.Duration, budget int64, args []string) error {
	if fdsPath == "" {
		return fmt.Errorf("-fds is required")
	}
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one CSV file")
	}
	r, err := depminer.LoadCSVFile(args[0], !noHeader)
	if err != nil {
		return err
	}
	f, err := os.Open(fdsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	rules, err := depminer.ParseCover(f, r.Names())
	if err != nil {
		return err
	}

	var cover depminer.Cover
	if explain {
		res, err := depminer.Discover(ctx, r, depminer.Options{Armstrong: depminer.ArmstrongNone, Budget: cli.NewBudget(timeout, budget)})
		if err != nil {
			// A partial cover cannot explain anything soundly; fail the
			// run with the governed error (exit code 3).
			return err
		}
		cover = res.FDs
	}

	failed := 0
	for _, rule := range rules {
		if ti, tj := r.Violation(rule.LHS, rule.RHS); ti >= 0 {
			failed++
			fmt.Printf("FAIL  %s\n", rule.Names(r.Names()))
			fmt.Printf("      tuples %d and %d agree on the LHS but differ on %s (%q vs %q)\n",
				ti+1, tj+1, r.Name(rule.RHS), r.Value(ti, rule.RHS), r.Value(tj, rule.RHS))
			continue
		}
		fmt.Printf("ok    %s\n", rule.Names(r.Names()))
		if explain {
			chain, ok := cover.Derivation(rule.LHS, rule.RHS, r.Arity())
			switch {
			case !ok:
				// Cannot happen: the canonical cover implies dep(r).
				fmt.Println("      (no derivation found)")
			case len(chain) == 0:
				fmt.Println("      trivial (RHS is part of the LHS)")
			default:
				for _, step := range chain {
					fmt.Printf("      via %s\n", step.Names(r.Names()))
				}
			}
		}
	}
	fmt.Printf("\n%d/%d rules hold\n", len(rules)-failed, len(rules))
	if failed > 0 {
		return errRulesViolated
	}
	return nil
}
