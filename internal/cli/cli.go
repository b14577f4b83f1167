// Package cli centralises the exit-code contract and signal plumbing shared
// by the command-line drivers.
//
// Every command exits with one of four documented codes:
//
//	0 — success (including -h/-help)
//	1 — runtime failure (simulation error, I/O error, cancellation with
//	    nothing checkpointed)
//	2 — usage error: bad flags or arguments
//	3 — partial completion: the campaign was interrupted or lost cells,
//	    and the completed work was checkpointed for -resume
//
// Commands return errors from their run functions; main defers the mapping
// to Exit, wrapping usage mistakes in UsageError (via Usagef or Parse) and
// interrupted-but-checkpointed campaigns in PartialError (via Partial).
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"softerror/internal/checkpoint"
	"softerror/internal/par"
)

// The documented exit codes.
const (
	ExitOK      = 0
	ExitRuntime = 1
	ExitUsage   = 2
	ExitPartial = 3
)

// UsageError marks a command-line usage mistake (exit code 2).
type UsageError struct{ Err error }

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Usagef builds a UsageError from a format string.
func Usagef(format string, args ...any) error {
	return &UsageError{Err: fmt.Errorf(format, args...)}
}

// Parse runs fs.Parse and classifies failures as usage errors; -h/-help
// passes through as flag.ErrHelp, which Exit maps to success.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return &UsageError{Err: err}
}

// PartialError reports a campaign that stopped early — interrupted, or with
// poisoned cells under a collect policy — whose completed work survives in
// a checkpoint (exit code 3).
type PartialError struct {
	// Done and Total count campaign cells.
	Done, Total int
	// Path locates the checkpoint snapshot.
	Path string
	// Err is what stopped the campaign.
	Err error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("partial completion: %d/%d cells checkpointed to %s (rerun with -resume to finish): %v",
		e.Done, e.Total, e.Path, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }

// Partial classifies a campaign's error against its checkpoint ck: with a
// checkpoint, a cancellation or a par.Errors (poisoned cells under a
// collect policy) becomes a PartialError counting the cells ck holds. Any
// other error, and every error when ck is nil, comes back unchanged.
func Partial[T any](err error, ck *checkpoint.File[T]) error {
	var tasks par.Errors
	if ck == nil || !errors.Is(err, context.Canceled) && !errors.As(err, &tasks) {
		return err
	}
	return &PartialError{Done: ck.CountDone(), Total: ck.Total(), Path: ck.Path(), Err: err}
}

// ExitCode maps an error to the documented exit code.
func ExitCode(err error) int {
	var ue *UsageError
	var pe *PartialError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return ExitOK
	case errors.As(err, &ue):
		return ExitUsage
	case errors.As(err, &pe):
		return ExitPartial
	default:
		return ExitRuntime
	}
}

// Exit prints err (if any) prefixed with the command name and terminates
// the process with the mapped code.
func Exit(name string, err error) {
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(ExitCode(err))
}

// SignalContext returns a context cancelled on SIGINT or SIGTERM, so
// campaign drivers can checkpoint and report instead of dying mid-write.
// The second signal kills the process with the default disposition.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
