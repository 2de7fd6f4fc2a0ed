// Package guard is the pipeline's hardening layer: typed errors for
// panics, resource budgets and injected faults; recover wrappers that
// keep one crashing stage from taking down the process; cooperative
// cancellation helpers; and a deterministic fault-injection harness
// (see failpoint.go) that the matrix tests drive through every stage
// of the extraction pipeline.
//
// The package is stdlib-only and imports nothing else from the
// repository, so every layer — cif, geom, frontend, scan, extract,
// hext and the commands — can depend on it without cycles.
//
// Error taxonomy:
//
//   - *PanicError — a guarded stage panicked, on the caller's goroutine
//     or on the pipe's producer goroutine; carries the pipeline stage,
//     the panic value and the captured stack. The extraction unwinds
//     cleanly and surfaces this instead of crashing the process.
//   - *LimitError — a resource budget (Limits) was exceeded; carries
//     the stage, which budget, the observed value and the cap.
//   - *StageError — any other error attributed to a pipeline stage:
//     context cancellation, deadline expiry, injected faults. Unwraps
//     to the underlying error so errors.Is(err, context.Canceled)
//     still works through it.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"
)

// ErrNoGeometry is the sentinel wrapped by the strict-mode "design
// contains no geometry" failures in the flat and hierarchical front
// ends. It lives here, in the shared taxonomy layer, so callers that
// sort failures into "bad input" versus "broken pipeline" — the HTTP
// service's 422-versus-500 split — can classify it with errors.Is
// without importing either front end.
var ErrNoGeometry = errors.New("design contains no geometry")

// Pipeline stage names used for error attribution and fault-injection
// targeting. Every stage reports one of these, the pipe's producer
// goroutine included.
const (
	StageParse       = "cif/parse"
	StageFrontend    = "frontend/stream" // lazy heap front end
	StageTileRead    = "tile/read"       // tile fetch, checksum, decode and filter
	StageSweep       = "scan/sweep"      // scanline sweep
	StageExtract     = "extract"         // pipeline driver
	StageHextPlan    = "hext/plan"       // window subdivision front end
	StageHextLeaf    = "hext/leaf"       // leaf window sweep
	StageHextCompose = "hext/compose"    // window compose
	StageHextFlatten = "hext/flatten"    // window-DAG flattening

	// StageCheck is the static electrical-rule checker. It is not a
	// fault-injection point (the checker is a pure post-pass), so it is
	// absent from Stages; it exists for diagnostic attribution.
	StageCheck = "check"
)

// Stages lists every injection point the fault matrix exercises, in
// pipeline order.
var Stages = []string{
	StageParse, StageFrontend, StageTileRead, StageSweep, StageExtract,
	StageHextPlan, StageHextLeaf, StageHextCompose, StageHextFlatten,
}

// PanicError is a panic captured by a recover wrapper: the stage it
// happened in, the panic value and the goroutine stack at the point of
// the panic.
type PanicError struct {
	Stage string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: panic: %v", e.Stage, e.Value)
}

// StageError attributes an underlying error (cancellation, deadline,
// injected fault) to a pipeline stage.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return e.Stage + ": " + e.Err.Error() }
func (e *StageError) Unwrap() error { return e.Err }

// abortPanic carries an error up a deep recursion as a panic; Recover
// unwraps it back to the error instead of wrapping it in a PanicError.
// It is how the hext flattener unwinds mid-recursion on cancellation.
type abortPanic struct{ err error }

// Abort panics with err in a form Recover converts back into err
// itself (not a PanicError). Use it to unwind deep recursion where
// threading an error return through every frame is not practical.
func Abort(err error) { panic(abortPanic{err}) }

// Recover is the deferred half of a recover wrapper:
//
//	defer guard.Recover(guard.StageSweep, &err)
//
// A panic in the guarded function becomes a *PanicError in *errp
// (carrying the captured stack), except aborts raised via Abort, which
// restore their original error. If *errp is already set it is kept.
func Recover(stage string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if *errp != nil {
		return
	}
	if a, ok := r.(abortPanic); ok {
		*errp = a.err
		return
	}
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	*errp = &PanicError{Stage: stage, Value: r, Stack: buf}
}

// Run executes f under a recover wrapper, converting panics into
// *PanicError attributed to stage. The pipe's producer goroutine runs
// its body through it, as do HEXT's leaf sweeps, composes and flatten.
func Run(stage string, f func() error) (err error) {
	defer Recover(stage, &err)
	return f()
}

// Ctx reports a stage-attributed error when ctx has been cancelled or
// timed out, and nil otherwise. A nil ctx never errors, so unplumbed
// callers pay only a nil check.
func Ctx(ctx context.Context, stage string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &StageError{Stage: stage, Err: err}
	}
	return nil
}

// WaitGoroutines polls until the process goroutine count drops to at
// most base, returning the last observed count and whether the bound
// was reached. Tests use it as a stdlib-only leak checker: workers
// that are mid-unwind when an extraction returns get a grace period to
// exit, but a genuinely leaked goroutine fails the bound.
func WaitGoroutines(base int, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(time.Millisecond)
	}
}
