// Package cli holds the glue shared by the ace and hext commands: the
// exit-code taxonomy, the diagnostics rendering conventions and the
// host line of the timing tables, so both binaries classify failures,
// print findings and label measurements identically.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"ace/internal/diag"
	"ace/internal/guard"
	"ace/internal/store"
	"ace/internal/tile"
)

// Exit codes. Package flag already exits with 2 on a bad flag
// (flag.ExitOnError), which this taxonomy deliberately adopts as the
// usage code.
const (
	// ExitOK: extraction succeeded and no Error-severity diagnostics
	// were reported.
	ExitOK = 0

	// ExitFindings: the run produced Error-severity diagnostics (parse
	// damage in lenient mode, checker errors), or failed outright for a
	// reason with no more specific code.
	ExitFindings = 1

	// ExitUsage: bad command line (flag package convention).
	ExitUsage = 2

	// ExitTimeout: the -timeout budget expired (context deadline).
	ExitTimeout = 3

	// ExitLimit: a guard.Limits resource budget was exceeded.
	ExitLimit = 4

	// ExitCorrupt: stored data failed integrity verification — a
	// packed tile file (*tile.CorruptError) or a persistent-cache
	// entry (*store.CorruptError). Distinct from ExitFindings because
	// the input design may be fine; it is the on-disk artifact that
	// needs re-packing or re-populating.
	//
	// Only primary inputs (a -tiles file) and explicit verification
	// commands (hext -cache-verify, cifpack -verify) can exit with
	// this code. The persistent cache itself fails open: a damaged or
	// unreadable entry on the read path is quarantined and recomputed
	// (surfacing only in diskErrors counters), so cache disk faults
	// never classify a run as corrupt.
	ExitCorrupt = 5
)

// ExitCodeFor classifies a pipeline error: context cancellation or
// deadline → ExitTimeout, *guard.LimitError → ExitLimit, tile or
// store corruption → ExitCorrupt, anything else → ExitFindings.
// (Stage wrappers are unwrapped, so a LimitError inside a
// *guard.StageError still classifies as ExitLimit.)
func ExitCodeFor(err error) int {
	if err == nil {
		return ExitOK
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return ExitTimeout
	}
	var le *guard.LimitError
	if errors.As(err, &le) {
		return ExitLimit
	}
	var tc *tile.CorruptError
	var sc *store.CorruptError
	if errors.As(err, &tc) || errors.As(err, &sc) {
		return ExitCorrupt
	}
	return ExitFindings
}

// Fatal prints "prog: err" to stderr and exits with the taxonomy code
// for err.
func Fatal(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(ExitCodeFor(err))
}

// RenderDiagnostics writes a run's diagnostics set, its one channel of
// findings, in the shared format: the JSON report to jsonW when jsonOut
// is set (machine consumption, conventionally stdout); otherwise the
// text rendering to textW (conventionally stderr, so the wirelist on
// stdout stays clean) when the set holds anything or report asks for
// the summary anyway.
func RenderDiagnostics(file string, s *diag.Set, jsonOut, report bool, jsonW, textW io.Writer) error {
	if jsonOut {
		return diag.WriteJSON(jsonW, file, s)
	}
	if !report && s.Len() == 0 && s.Dropped() == 0 {
		return nil
	}
	return diag.WriteText(textW, file, s)
}

// Exit returns the taxonomy code for a finished run: ExitFindings when
// the set holds Error-severity diagnostics, ExitOK otherwise.
func Exit(s *diag.Set) int {
	if s.Errors() > 0 {
		return ExitFindings
	}
	return ExitOK
}

// HostLine describes the machine a timing table ran on, for the table
// headers: Go version, OS/arch and GOMAXPROCS. GOMAXPROCS matters
// because flat ACE overlaps its front end with the sweep on a second
// goroutine while HEXT runs on one, so the two compare differently at
// one and at two Ps.
func HostLine() string {
	return fmt.Sprintf("go %s on %s/%s, GOMAXPROCS=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
}
