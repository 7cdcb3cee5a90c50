// Package guard is the resource-governance layer of the discovery
// pipelines: wall-clock deadlines, size budgets, and panic containment at
// phase and worker boundaries.
//
// A *Budget is created once per run and shared by every phase. The size
// budget is accounted in the units each phase already counts — tuple
// couples enumerated and agree sets produced (step 1), lattice level
// width (TANE, candidate keys), transversal frontier size (steps 3–4),
// FastFDs DFS nodes, IND candidates — all charged against one shared
// pool, so a single number bounds the total volume of intermediate
// objects a run may materialise.
//
// Overruns surface as *Error values wrapping ErrBudget or ErrDeadline
// together with the phase that crossed the line; recovered panics surface
// as *PanicError wrapping ErrPanic. Callers classify outcomes with
// errors.Is and, for governed errors (see Governed), return the partial
// result accumulated so far instead of discarding completed work.
//
// All methods are safe for concurrent use and on a nil receiver: a nil
// *Budget means ungoverned, so phases thread the pointer unconditionally.
package guard

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Sentinel errors every governance outcome wraps.
var (
	// ErrBudget reports that the size budget was exhausted.
	ErrBudget = errors.New("resource budget exceeded")
	// ErrDeadline reports that the wall-clock deadline passed.
	ErrDeadline = errors.New("deadline exceeded")
	// ErrPanic reports that a panic was contained at a phase or worker
	// boundary.
	ErrPanic = errors.New("panic recovered")
	// ErrInvalidOptions is wrapped by every Options validation failure
	// across the miners, so callers can distinguish "your configuration is
	// nonsense" from runtime failures with one errors.Is test.
	ErrInvalidOptions = errors.New("invalid options")
)

// Limits declares the ceilings of a run. The zero value is ungoverned.
type Limits struct {
	// Deadline is the wall-clock cutoff; zero means none.
	Deadline time.Time
	// Units is the shared size budget, charged by every phase in its own
	// units (couples, agree sets, level widths, frontier sizes, DFS
	// nodes, candidates); zero means unlimited.
	Units int64
}

// Budget is the per-run governance state: a deadline checked at phase
// checkpoints and a monotone unit counter charged by every phase.
type Budget struct {
	deadline time.Time
	limit    int64
	used     atomic.Int64
}

// New creates a budget enforcing the given limits.
func New(l Limits) *Budget {
	return &Budget{deadline: l.Deadline, limit: l.Units}
}

// WithTimeout creates a budget whose deadline is timeout from now
// (no deadline when timeout <= 0) and whose size budget is units
// (unlimited when units <= 0).
func WithTimeout(timeout time.Duration, units int64) *Budget {
	l := Limits{Units: units}
	if timeout > 0 {
		l.Deadline = time.Now().Add(timeout)
	}
	return New(l)
}

// Checkpoint verifies the deadline, returning an *Error wrapping
// ErrDeadline attributed to phase when it has passed. Phases call it at
// every chunk, level, or stride boundary so overruns are detected within
// one unit of work.
func (b *Budget) Checkpoint(phase string) error {
	if b == nil {
		return nil
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return &Error{Phase: phase, Used: b.used.Load(), Limit: b.limit, err: ErrDeadline}
	}
	return nil
}

// Charge checks the deadline and then consumes n units, returning an
// *Error wrapping ErrBudget attributed to phase when the budget is
// exhausted. The charge is recorded even when it overruns, so Used
// reports the true volume attempted.
func (b *Budget) Charge(phase string, n int) error {
	if b == nil {
		return nil
	}
	if err := b.Checkpoint(phase); err != nil {
		return err
	}
	used := b.used.Add(int64(n))
	if b.limit > 0 && used > b.limit {
		return &Error{Phase: phase, Used: used, Limit: b.limit, err: ErrBudget}
	}
	return nil
}

// Used returns the units consumed so far.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Error is a budget or deadline overrun, attributed to the pipeline phase
// that crossed the limit. It wraps ErrBudget or ErrDeadline.
type Error struct {
	// Phase names the pipeline phase that overran ("agree", "lhs",
	// "tane", ...).
	Phase string
	// Used and Limit are the unit counter and ceiling at overrun time
	// (Limit is 0 for pure deadline overruns with no size budget).
	Used, Limit int64
	err         error
}

func (e *Error) Error() string {
	if errors.Is(e.err, ErrDeadline) {
		return fmt.Sprintf("guard: phase %s: %v", e.Phase, e.err)
	}
	return fmt.Sprintf("guard: phase %s: %v (%d of %d units)", e.Phase, e.err, e.Used, e.Limit)
}

func (e *Error) Unwrap() error { return e.err }

// PanicError is a panic contained at a phase or worker boundary. It wraps
// ErrPanic and carries the panic value and the stack captured at recovery.
type PanicError struct {
	// Phase names the boundary that contained the panic.
	Phase string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("guard: phase %s: panic recovered: %v", e.Phase, e.Value)
}

func (e *PanicError) Unwrap() error { return ErrPanic }

// NewPanicError wraps a recovered panic value, capturing the current
// stack. Call it from inside the recovering deferred function so the
// stack still shows the panic site.
func NewPanicError(phase string, value any) *PanicError {
	return &PanicError{Phase: phase, Value: value, Stack: debug.Stack()}
}

// Recover converts an in-flight panic into a *PanicError stored in *errp.
// It must be the deferred call itself — `defer guard.Recover("phase",
// &err)` — for recover to see the panic.
func Recover(phase string, errp *error) {
	if p := recover(); p != nil {
		*errp = NewPanicError(phase, p)
	}
}

// Governed reports whether err is a governance outcome — a budget or
// deadline overrun, or a contained panic — as opposed to a cancellation
// or an ordinary failure. Pipelines keep partial results for governed
// errors and discard them otherwise.
func Governed(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, ErrDeadline) || errors.Is(err, ErrPanic)
}
