// Package cli centralises behaviour shared by every command-line tool and
// daemon in this repository: POSIX-style signal handling and a common
// exit-code contract, so that scripts driving the miners can distinguish
// "bad input" from "ran out of budget" from "operator pressed Ctrl-C".
//
// Exit codes:
//
//	0   success
//	1   bad input or operational error
//	2   tool-specific "checked and failed" (fdcheck: rules violated)
//	3   resource budget or deadline exceeded (partial results may have
//	    been printed)
//	130 interrupted by SIGINT/SIGTERM (128+2, the shell convention)
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/guard"
)

// Exit codes shared by all commands.
const (
	ExitOK          = 0
	ExitError       = 1
	ExitChecked     = 2
	ExitBudget      = 3
	ExitInterrupted = 130
)

// NotifyContext returns a copy of parent cancelled on SIGINT or SIGTERM,
// plus its stop function. The first signal cancels the context (letting
// in-flight phases unwind, partial results print, and servers drain); a
// second signal kills the process via the default handler, because stop()
// restores it — callers should defer stop(). This is the one signal path
// shared by the four CLIs and the depminerd daemon.
func NotifyContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// Main is the shared entry-point wrapper: it installs the signal context,
// runs the tool, prints a failure to stderr prefixed with the command
// name, and exits with the contract code. Commands call it from main()
// after flag parsing, so signal handling and exit-code mapping cannot
// drift between tools.
func Main(name string, run func(ctx context.Context) error) {
	ctx, stop := NotifyContext(context.Background())
	err := run(ctx)
	stop()
	if err == nil {
		return
	}
	code := Code(ctx, err)
	// "Checked and failed" outcomes (exit 2) already reported themselves
	// on stdout; everything else gets the conventional stderr line.
	if code != ExitChecked {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	osExit(code)
}

// NewBudget builds a run's budget from a -timeout and a -budget unit
// count, or returns nil (ungoverned) when both are zero. The guard
// deadline, rather than a context deadline, lets an over-time run print
// its partial results.
func NewBudget(timeout time.Duration, units int64) *guard.Budget {
	if timeout <= 0 && units == 0 {
		return nil
	}
	return guard.WithTimeout(timeout, units)
}

// osExit is swapped out by tests of Main.
var osExit = os.Exit

// exitError carries an explicit exit code chosen by the tool (e.g.
// fdcheck's "rules violated" → 2), overriding Code's classification.
type exitError struct {
	err  error
	code int
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// WithExitCode attaches an explicit exit code to err; Code returns it
// unchanged. A nil err stays nil.
func WithExitCode(err error, code int) error {
	if err == nil {
		return nil
	}
	return &exitError{err: err, code: code}
}

// Code maps an error from a miner run to the exit-code contract. ctx
// should be the signal context the run used: a cancelled signal context
// turns context.Canceled errors into "interrupted".
func Code(ctx context.Context, err error) int {
	if err == nil {
		return ExitOK
	}
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	if errors.Is(err, guard.ErrBudget) || errors.Is(err, guard.ErrDeadline) ||
		errors.Is(err, context.DeadlineExceeded) {
		return ExitBudget
	}
	if errors.Is(err, context.Canceled) && ctx != nil && ctx.Err() != nil {
		return ExitInterrupted
	}
	return ExitError
}
