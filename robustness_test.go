package depminer

// The robustness suite: fault injection at every hook point, typed-error
// unwinding, partial-result integrity, budget and deadline governance,
// pathological inputs, and goroutine-leak freedom.
// Run it under -race: the containment boundaries and the shared budget
// are exactly where races would hide.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/leakcheck"
)

// TestPstoreFaultMidSearch injects failures into the partition store's
// eviction and recompute paths after the first few crossings, so a
// tightly capped TANE search dies mid-level with completed levels in
// hand. The run must surface a governed partial result — a subset of the
// full cover, every FD of which holds on the instance — never a raw
// panic or a wrong dependency.
func TestPstoreFaultMidSearch(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()
	r, err := Generate(GenerateSpec{Attrs: 8, Rows: 400, Correlation: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	full, err := DiscoverTANE(ctx, r, TANEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inCover := map[FD]bool{}
	for _, f := range full.FDs {
		inCover[f] = true
	}
	for _, point := range []string{faultinject.PstoreEvict, faultinject.PstoreRecompute} {
		for _, after := range []int{0, 3, 25} {
			t.Run(fmt.Sprintf("%s/after=%d", point, after), func(t *testing.T) {
				leakcheck.Check(t)
				faultinject.Set(point, faultinject.After(after, faultinject.PanicWith("late pstore fault")))
				defer faultinject.Reset()
				res, derr := DiscoverTANE(ctx, r, TANEOptions{MaxPartitionBytes: 1, Workers: 2})
				if derr == nil {
					t.Fatal("1-byte cap never crossed the armed hook")
				}
				if !errors.Is(derr, guard.ErrPanic) {
					t.Fatalf("err = %v, want contained panic", derr)
				}
				if res == nil || !res.Partial {
					t.Fatal("no partial result")
				}
				for _, f := range res.FDs {
					if !inCover[f] {
						t.Errorf("partial cover invents %s, absent from the full cover", f)
					}
				}
				if ok, bad := Verify(r, res.FDs); !ok {
					t.Errorf("partial cover contains %s, which does not hold", bad)
				}
			})
		}
	}
	// A plain injected error (not governed) must drop the result entirely.
	faultinject.Set(faultinject.PstoreEvict, faultinject.FailWith(errInjected))
	defer faultinject.Reset()
	res, derr := DiscoverTANE(ctx, r, TANEOptions{MaxPartitionBytes: 1})
	if !errors.Is(derr, errInjected) || res != nil {
		t.Fatalf("res=%v err=%v, want nil result with the injected sentinel", res, derr)
	}
}

// TestBudgetOverrunPartialResult exhausts a tiny unit budget and checks
// the typed error, the phase attribution, and the partial result.
func TestBudgetOverrunPartialResult(t *testing.T) {
	leakcheck.Check(t)
	r := PaperExample()
	b := NewBudget(Limits{Units: 3})
	res, err := Discover(context.Background(), r, Options{Budget: b})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	var ge *guard.Error
	if !errors.As(err, &ge) {
		t.Fatalf("err is %T, want *guard.Error", err)
	}
	if ge.Phase == "" {
		t.Error("no phase attributed")
	}
	if res == nil || !res.Partial {
		t.Fatal("no partial result")
	}
	if b.Used() <= 3 {
		t.Errorf("Used = %d, want the overrunning charge recorded", b.Used())
	}
}

// TestDeadlineOverrunPartialResult runs under an already-expired deadline.
func TestDeadlineOverrunPartialResult(t *testing.T) {
	leakcheck.Check(t)
	r := PaperExample()
	b := NewBudget(Limits{Deadline: time.Now().Add(-time.Second)})
	res, err := Discover(context.Background(), r, Options{Budget: b})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("no partial result")
	}
}

// TestBudgetAcrossMiners gives every miner a budget too small to finish
// and checks each returns its typed partial result.
func TestBudgetAcrossMiners(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()
	r, err := Generate(GenerateSpec{Attrs: 8, Rows: 500, Correlation: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("tane", func(t *testing.T) {
		res, err := DiscoverTANE(ctx, r, TANEOptions{Budget: NewBudget(Limits{Units: 5})})
		if !errors.Is(err, ErrBudget) || res == nil || !res.Partial {
			t.Fatalf("err=%v res=%+v", err, res)
		}
	})
	t.Run("keys", func(t *testing.T) {
		res, err := DiscoverKeys(ctx, r, KeysOptions{Budget: NewBudget(Limits{Units: 2})})
		if !errors.Is(err, ErrBudget) || res == nil || !res.Partial {
			t.Fatalf("err=%v res=%+v", err, res)
		}
	})
	t.Run("fastfds", func(t *testing.T) {
		res, err := Discover(ctx, r, Options{Algorithm: FastFDs, Budget: NewBudget(Limits{Units: 5})})
		if !errors.Is(err, ErrBudget) || res == nil || !res.Partial {
			t.Fatalf("err=%v res=%+v", err, res)
		}
	})
	t.Run("ind", func(t *testing.T) {
		res, err := DiscoverINDs(ctx, []*Relation{r}, INDOptions{Budget: NewBudget(Limits{Units: 5})})
		if !errors.Is(err, ErrBudget) || res == nil || !res.Partial {
			t.Fatalf("err=%v res=%+v", err, res)
		}
	})
}

// TestOptionsValidation checks malformed Options fail fast with the typed
// sentinel, over a relation and over a streamed source.
func TestOptionsValidation(t *testing.T) {
	ctx := context.Background()
	r := PaperExample()
	bad := []Options{
		{Workers: -1},
		{MaxAgreeBytes: -8},
		{Algorithm: Algorithm(99)},
		{Armstrong: ArmstrongMode(-2)},
	}
	for _, opts := range bad {
		if _, err := Discover(ctx, r, opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Discover(%+v) err = %v, want ErrInvalidOptions", opts, err)
		}
	}
	src := mustStream(t, r)
	if _, err := Discover(ctx, src, Options{Workers: -3}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("streamed bad workers err = %v, want ErrInvalidOptions", err)
	}
	// Valid options still validate clean.
	if err := (core.Options{Workers: 4, MaxAgreeBytes: 100}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func mustStream(t *testing.T, r *Relation) Source {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	src, err := StreamCSV(strings.NewReader(sb.String()), true)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// pathological returns the degenerate relations every miner must survive.
func pathological(t *testing.T) map[string]*Relation {
	t.Helper()
	mk := func(names []string, rows [][]string) *Relation {
		r, err := NewRelation(names, rows)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Width = MaxAttrs: two rows agreeing on column 0 only. (Agreeing on
	// many columns would be a combinatorial bomb for the levelwise
	// searches — e.g. 128 shared columns give the key search a 2^128
	// lattice — which is the budget's job to stop, not this suite's.)
	wideNames := make([]string, MaxAttrs)
	wideRow1 := make([]string, MaxAttrs)
	wideRow2 := make([]string, MaxAttrs)
	for i := range wideNames {
		wideNames[i] = fmt.Sprintf("c%d", i)
		wideRow1[i] = "x"
		if i == 0 {
			wideRow2[i] = "x"
		} else {
			wideRow2[i] = fmt.Sprintf("y%d", i)
		}
	}
	return map[string]*Relation{
		"all-identical": mk([]string{"a", "b", "c"}, [][]string{
			{"1", "1", "1"}, {"1", "1", "1"}, {"1", "1", "1"},
		}),
		"all-distinct": mk([]string{"a", "b", "c"}, [][]string{
			{"1", "4", "7"}, {"2", "5", "8"}, {"3", "6", "9"},
		}),
		"one-row":   mk([]string{"a", "b"}, [][]string{{"1", "2"}}),
		"zero-rows": mk([]string{"a", "b"}, nil),
		"max-width": mk(wideNames, [][]string{wideRow1, wideRow2}),
	}
}

// TestPathologicalInputs runs every miner over every degenerate relation:
// nothing may error, panic, or leak, and the FD miners must agree with
// each other on the cover size.
func TestPathologicalInputs(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()
	for name, r := range pathological(t) {
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t)
			dm, err := Discover(ctx, r, Options{Armstrong: ArmstrongNone})
			if err != nil {
				t.Fatalf("depminer: %v", err)
			}
			dm2, err := Discover(ctx, r, Options{Algorithm: DepMiner2, Armstrong: ArmstrongNone})
			if err != nil {
				t.Fatalf("depminer2: %v", err)
			}
			ff, err := Discover(ctx, r, Options{Algorithm: FastFDs})
			if err != nil {
				t.Fatalf("fastfds: %v", err)
			}
			tn, err := DiscoverTANE(ctx, r, TANEOptions{})
			if err != nil {
				t.Fatalf("tane: %v", err)
			}
			if fmt.Sprint(dm.FDs) != fmt.Sprint(dm2.FDs) ||
				fmt.Sprint(dm.FDs) != fmt.Sprint(ff.FDs) ||
				fmt.Sprint(dm.FDs) != fmt.Sprint(tn.FDs) {
				t.Errorf("covers disagree: depminer=%d depminer2=%d fastfds=%d tane=%d",
					len(dm.FDs), len(dm2.FDs), len(ff.FDs), len(tn.FDs))
			}
			if _, err := DiscoverKeys(ctx, r, KeysOptions{}); err != nil {
				t.Fatalf("keys: %v", err)
			}
			if _, err := DiscoverINDs(ctx, []*Relation{r}, INDOptions{MaxArity: 2}); err != nil {
				t.Fatalf("ind: %v", err)
			}
		})
	}
}

// TestLeakFreedomOnCancellation cancels every miner mid-run and checks
// all workers unwind.
func TestLeakFreedomOnCancellation(t *testing.T) {
	leakcheck.Check(t)
	r, err := Generate(GenerateSpec{Attrs: 10, Rows: 2000, Correlation: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Discover(ctx, r, Options{Workers: 4}); err == nil {
		t.Error("cancelled Discover succeeded")
	}
	if _, err := DiscoverTANE(ctx, r, TANEOptions{}); err == nil {
		t.Error("cancelled TANE succeeded")
	}
	if _, err := Discover(ctx, r, Options{Algorithm: FastFDs}); err == nil {
		t.Error("cancelled FastFDs succeeded")
	}
	if _, err := DiscoverKeys(ctx, r, KeysOptions{}); err == nil {
		t.Error("cancelled keys succeeded")
	}
	if _, err := DiscoverINDs(ctx, []*Relation{r}, INDOptions{}); err == nil {
		t.Error("cancelled INDs succeeded")
	}
}

// TestCancellationReturnsNoPartial pins the other half of the contract:
// cancellations are NOT governed errors and must not return results.
func TestCancellationReturnsNoPartial(t *testing.T) {
	leakcheck.Check(t)
	r := PaperExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Discover(ctx, r, Options{})
	if err == nil || res != nil {
		t.Fatalf("res=%v err=%v, want nil result with error", res, err)
	}
	if guard.Governed(err) {
		t.Errorf("cancellation classified as governed: %v", err)
	}
}
