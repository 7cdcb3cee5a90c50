package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/agree"
	"repro/internal/guard"
	"repro/internal/relation"
)

// TestValidate sweeps the rejection matrix of Options.Validate.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero", Options{}, true},
		{"full", Options{Algorithm: AgreeIdentifiers, Workers: 3, MaxAgreeBytes: 10, Armstrong: ArmstrongNone}, true},
		{"neg-workers", Options{Workers: -1}, false},
		{"neg-spill", Options{MaxAgreeBytes: -1}, false},
		{"bad-algo", Options{Algorithm: AgreeAlgorithm(7)}, false},
		{"neg-algo", Options{Algorithm: AgreeAlgorithm(-1)}, false},
		{"bad-armstrong", Options{Armstrong: ArmstrongMode(9)}, false},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: Validate = %v, want ErrInvalidOptions", tc.name, err)
		}
	}
}

// TestBudgetOverrunKeepsPhaseOutputs checks a budget that dies in the lhs
// phase still reports the agree sets and max sets computed before it.
func TestBudgetOverrunKeepsPhaseOutputs(t *testing.T) {
	r := relation.PaperExample()
	// The paper example charges 6 couples + 5 agree sets = 11 units in
	// step 1; cap just above that so the overrun lands in the transversal
	// search.
	b := guard.New(guard.Limits{Units: 12})
	res, err := Discover(context.Background(), r, Options{Budget: b, Armstrong: ArmstrongNone})
	if !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	var ge *guard.Error
	if !errors.As(err, &ge) || ge.Phase != "lhs" {
		t.Fatalf("err = %v, want phase lhs", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("no partial result")
	}
	if len(res.AgreeSets) == 0 || len(res.MaxSets) == 0 {
		t.Errorf("completed phases lost: agree=%d max=%d", len(res.AgreeSets), len(res.MaxSets))
	}
	if res.Couples != 6 {
		t.Errorf("Couples = %d, want 6", res.Couples)
	}
	// A levelwise cutoff emits nothing.
	if len(res.FDs) != 0 {
		t.Errorf("levelwise cutoff kept %d FDs, want none", len(res.FDs))
	}

	// FastFDs keeps the attributes it finished: under every budget that
	// cuts it mid-search, the partial cover is a prefix of the full one,
	// so no unfilled slot — a zero fd.FD, ∅ → attribute 0 — leaks out.
	full, err := Discover(context.Background(), r, Options{Algorithm: FastFDs, Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for units := int64(12); ; units++ {
		res, err := Discover(context.Background(), r, Options{Algorithm: FastFDs, Budget: guard.New(guard.Limits{Units: units}), Armstrong: ArmstrongNone})
		if err == nil {
			break
		}
		if !errors.As(err, &ge) || ge.Phase != "fastfds" || res == nil || !res.Partial {
			t.Fatalf("units=%d: err = %v, want a partial fastfds cutoff", units, err)
		}
		if len(res.FDs) >= len(full.FDs) || !slices.Equal(res.FDs, full.FDs[:len(res.FDs)]) {
			t.Fatalf("units=%d: partial cover %v is not a proper prefix of %v", units, res.FDs, full.FDs)
		}
		if len(res.FDs) > 0 {
			kept++
		}
	}
	if kept == 0 {
		t.Error("no FastFDs cutoff kept a finished attribute")
	}
}

// TestBudgetOverrunInAgreeKeepsCouples checks an overrun in step 1
// reports the couples examined.
func TestBudgetOverrunInAgreeKeepsCouples(t *testing.T) {
	r := relation.PaperExample()
	for _, algo := range []AgreeAlgorithm{AgreeCouples, AgreeIdentifiers} {
		b := guard.New(guard.Limits{Units: 2})
		res, err := Discover(context.Background(), r, Options{Algorithm: algo, Budget: b})
		if !errors.Is(err, guard.ErrBudget) {
			t.Fatalf("%v: err = %v", algo, err)
		}
		var ge *guard.Error
		if !errors.As(err, &ge) || ge.Phase != "agree" {
			t.Errorf("%v: phase = %v", algo, err)
		}
		if res == nil || !res.Partial || res.Couples != 6 {
			t.Errorf("%v: partial = %+v", algo, res)
		}
	}
}

// TestDeadlineCheckedBetweenPhases runs with an expired deadline and no
// unit budget: the first checkpoint must stop the run.
func TestDeadlineCheckedBetweenPhases(t *testing.T) {
	r := relation.PaperExample()
	b := guard.New(guard.Limits{Deadline: time.Now().Add(-time.Minute)})
	res, err := Discover(context.Background(), r, Options{Budget: b})
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("no partial result")
	}
}

// TestGovernedIdenticalOutput checks that attaching an ample budget does
// not change a single byte of the result.
func TestGovernedIdenticalOutput(t *testing.T) {
	r := relation.PaperExample()
	plain, err := Discover(context.Background(), r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	governed, err := Discover(context.Background(), r, Options{Budget: guard.New(guard.Limits{Units: 1 << 40})})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(plain.FDs) != fmt.Sprint(governed.FDs) ||
		fmt.Sprint(plain.AgreeSets) != fmt.Sprint(governed.AgreeSets) ||
		fmt.Sprint(plain.MaxSets) != fmt.Sprint(governed.MaxSets) {
		t.Error("governed run changed outputs")
	}
}

// TestRunFromAgreeSetsNotPartial checks that Run over a supplied ag(r) —
// the incremental miner's re-derivation — returns a non-partial result
// with the same cover.
func TestRunFromAgreeSetsNotPartial(t *testing.T) {
	r := relation.PaperExample()
	full, err := Discover(context.Background(), r, Options{Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Input{Source: r, Agree: &agree.Result{Sets: full.AgreeSets}}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Error("derive marked partial")
	}
	if fmt.Sprint(res.FDs) != fmt.Sprint(full.FDs) {
		t.Error("derive cover differs")
	}
}
