package guard

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilBudgetIsUngoverned(t *testing.T) {
	var b *Budget
	if err := b.Checkpoint("x"); err != nil {
		t.Errorf("nil Checkpoint = %v", err)
	}
	if err := b.Charge("x", 1<<40); err != nil {
		t.Errorf("nil Charge = %v", err)
	}
	if got := b.Used(); got != 0 {
		t.Errorf("nil Used = %d", got)
	}
	if got := b.Remaining(); got != math.MaxInt64 {
		t.Errorf("nil Remaining = %d", got)
	}
}

func TestZeroLimitsAreUnlimited(t *testing.T) {
	b := New(Limits{})
	if err := b.Charge("x", 1_000_000); err != nil {
		t.Errorf("Charge under zero limits = %v", err)
	}
	if got := b.Remaining(); got != math.MaxInt64 {
		t.Errorf("Remaining = %d", got)
	}
	if got := b.Used(); got != 1_000_000 {
		t.Errorf("Used = %d", got)
	}
}

func TestChargeOverrun(t *testing.T) {
	b := New(Limits{Units: 10})
	if err := b.Charge("agree", 10); err != nil {
		t.Fatalf("charge at limit = %v", err)
	}
	err := b.Charge("agree", 1)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("overrun = %v, want ErrBudget", err)
	}
	var ge *Error
	if !errors.As(err, &ge) {
		t.Fatalf("overrun is %T, want *Error", err)
	}
	if ge.Phase != "agree" || ge.Used != 11 || ge.Limit != 10 {
		t.Errorf("Error = %+v", ge)
	}
	if !strings.Contains(err.Error(), "agree") || !strings.Contains(err.Error(), "11 of 10") {
		t.Errorf("message = %q", err.Error())
	}
	if Governed(err) != true {
		t.Error("budget overrun not Governed")
	}
	// The overrunning charge is still recorded.
	if got := b.Used(); got != 11 {
		t.Errorf("Used after overrun = %d", got)
	}
	if got := b.Remaining(); got != 0 {
		t.Errorf("Remaining after overrun = %d", got)
	}
}

func TestDeadline(t *testing.T) {
	b := New(Limits{Deadline: time.Now().Add(-time.Second)})
	err := b.Checkpoint("lhs")
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired Checkpoint = %v, want ErrDeadline", err)
	}
	var ge *Error
	if !errors.As(err, &ge) || ge.Phase != "lhs" {
		t.Errorf("error = %v", err)
	}
	// Charge also trips the deadline, before consuming units.
	if err := b.Charge("lhs", 5); !errors.Is(err, ErrDeadline) {
		t.Errorf("expired Charge = %v", err)
	}
	if !Governed(err) {
		t.Error("deadline overrun not Governed")
	}

	future := New(Limits{Deadline: time.Now().Add(time.Hour)})
	if err := future.Checkpoint("lhs"); err != nil {
		t.Errorf("future Checkpoint = %v", err)
	}
}

func TestWithTimeout(t *testing.T) {
	b := WithTimeout(0, 0)
	if err := b.Checkpoint("x"); err != nil {
		t.Errorf("no-deadline WithTimeout checkpoint = %v", err)
	}
	b = WithTimeout(-time.Second, 5)
	if err := b.Charge("x", 6); !errors.Is(err, ErrBudget) {
		t.Errorf("WithTimeout units not enforced: %v", err)
	}
}

func TestConcurrentCharges(t *testing.T) {
	b := New(Limits{Units: 1000})
	var wg sync.WaitGroup
	overruns := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				if err := b.Charge("x", 1); err != nil {
					overruns[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if got := b.Used(); got != 2000 {
		t.Errorf("Used = %d, want 2000 (every charge recorded)", got)
	}
	total := 0
	for _, n := range overruns {
		total += n
	}
	if total != 1000 {
		t.Errorf("overruns = %d, want exactly the 1000 charges past the limit", total)
	}
}

func TestPanicError(t *testing.T) {
	pe := NewPanicError("tane", "boom")
	if !errors.Is(pe, ErrPanic) {
		t.Error("PanicError does not wrap ErrPanic")
	}
	if pe.Value != "boom" || pe.Phase != "tane" {
		t.Errorf("PanicError = %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !strings.Contains(pe.Error(), "tane") || !strings.Contains(pe.Error(), "boom") {
		t.Errorf("message = %q", pe.Error())
	}
	if !Governed(pe) {
		t.Error("PanicError not Governed")
	}
}

func TestRecover(t *testing.T) {
	run := func() (err error) {
		defer Recover("phase-x", &err)
		panic(42)
	}
	err := run()
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("recovered err = %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Phase != "phase-x" || pe.Value != 42 {
		t.Errorf("PanicError = %+v", pe)
	}

	// No panic: err stays nil.
	clean := func() (err error) {
		defer Recover("phase-x", &err)
		return nil
	}
	if err := clean(); err != nil {
		t.Errorf("clean run err = %v", err)
	}
}

func TestGoverned(t *testing.T) {
	for _, err := range []error{ErrBudget, ErrDeadline, ErrPanic,
		fmt.Errorf("wrapped: %w", ErrBudget), NewPanicError("x", "v")} {
		if !Governed(err) {
			t.Errorf("Governed(%v) = false", err)
		}
	}
	for _, err := range []error{nil, errors.New("other"), fmt.Errorf("io: %w", errors.New("x"))} {
		if Governed(err) {
			t.Errorf("Governed(%v) = true", err)
		}
	}
}

// Remaining returns the units left, or math.MaxInt64 when unlimited.
func (b *Budget) Remaining() int64 {
	if b == nil || b.limit <= 0 {
		return math.MaxInt64
	}
	if rem := b.limit - b.used.Load(); rem > 0 {
		return rem
	}
	return 0
}
