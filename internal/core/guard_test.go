package core

import (
	"context"
	"errors"
	"fmt"
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
		{"full", Options{Algorithm: AgreeIdentifiers, ChunkSize: 10, Workers: 3, Armstrong: ArmstrongNone}, true},
		{"neg-workers", Options{Workers: -1}, false},
		{"neg-chunk", Options{ChunkSize: -1}, false},
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
	res, err := Run(context.Background(), Input{Agree: &agree.Result{Sets: full.AgreeSets}, Arity: r.Arity()}, Options{Workers: 1})
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
