package cli

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/guard"
)

func TestCode(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()

	budget := guard.New(guard.Limits{Units: 1})
	_ = budget.Charge("x", 1)
	overrun := budget.Charge("x", 1)
	deadline := guard.New(guard.Limits{Deadline: time.Now().Add(-time.Second)}).Checkpoint("x")

	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want int
	}{
		{"nil", bg, nil, ExitOK},
		{"plain", bg, errors.New("boom"), ExitError},
		{"budget", bg, overrun, ExitBudget},
		{"deadline", bg, deadline, ExitBudget},
		{"ctx-deadline", bg, context.DeadlineExceeded, ExitBudget},
		{"interrupted", cancelled, context.Canceled, ExitInterrupted},
		{"cancel-no-signal", bg, context.Canceled, ExitError},
		{"explicit", bg, WithExitCode(errors.New("rules violated"), ExitChecked), ExitChecked},
		{"explicit-wrapped", bg, fmt.Errorf("outer: %w", WithExitCode(errors.New("x"), ExitChecked)), ExitChecked},
	}
	for _, c := range cases {
		if got := Code(c.ctx, c.err); got != c.want {
			t.Errorf("%s: Code = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestWithExitCodeNil(t *testing.T) {
	if WithExitCode(nil, ExitChecked) != nil {
		t.Fatal("WithExitCode(nil) should stay nil")
	}
}

func TestWithExitCodePreservesIs(t *testing.T) {
	sentinel := errors.New("violated")
	err := WithExitCode(fmt.Errorf("wrap: %w", sentinel), ExitChecked)
	if !errors.Is(err, sentinel) {
		t.Fatal("WithExitCode must preserve the error chain")
	}
}

func TestNotifyContextCancelsOnStop(t *testing.T) {
	ctx, stop := NotifyContext(context.Background())
	if ctx.Err() != nil {
		t.Fatal("fresh signal context already cancelled")
	}
	stop()
	if ctx.Err() == nil {
		t.Fatal("stop() must cancel the signal context")
	}
}

func TestNotifyContextInheritsParent(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	ctx, stop := NotifyContext(parent)
	defer stop()
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("signal context must follow parent cancellation")
	}
}

func TestMainExitCodes(t *testing.T) {
	var got []int
	osExit = func(code int) { got = append(got, code) }
	defer func() { osExit = os_Exit }()

	Main("t", func(ctx context.Context) error { return nil })
	Main("t", func(ctx context.Context) error { return errors.New("boom") })
	Main("t", func(ctx context.Context) error { return WithExitCode(errors.New("checked"), ExitChecked) })
	Main("t", func(ctx context.Context) error {
		b := guard.New(guard.Limits{Deadline: time.Now().Add(-time.Second)})
		return b.Checkpoint("x")
	})

	want := []int{ExitError, ExitChecked, ExitBudget} // success exits nothing
	if len(got) != len(want) {
		t.Fatalf("exit calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("exit calls = %v, want %v", got, want)
		}
	}
}

// os_Exit keeps a reference to the real exiter for restoration.
var os_Exit = osExit

func TestNewBudget(t *testing.T) {
	if b := NewBudget(0, 0); b != nil {
		t.Errorf("NewBudget(0, 0) = %v, want nil (ungoverned)", b)
	}
	if err := NewBudget(time.Hour, 0).Checkpoint("x"); err != nil {
		t.Errorf("hour deadline already passed: %v", err)
	}
	expiring := NewBudget(time.Nanosecond, 0)
	time.Sleep(time.Millisecond)
	if err := expiring.Checkpoint("x"); !errors.Is(err, guard.ErrDeadline) {
		t.Errorf("nanosecond deadline: err = %v, want ErrDeadline", err)
	}
	b := NewBudget(0, 2)
	if err := b.Charge("x", 3); !errors.Is(err, guard.ErrBudget) {
		t.Errorf("3 units on a budget of 2: err = %v, want ErrBudget", err)
	}
}
