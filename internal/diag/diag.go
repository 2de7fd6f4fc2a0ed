// Package diag is the unified diagnostics subsystem, the one channel
// through which every layer reports a finding: every fault the pipeline
// can *survive* — malformed CIF commands, unresolved or recursive
// symbol calls, over-deep hierarchies, labels that name no net or two,
// a cache directory that cannot be opened, electrical-rule findings
// from the static checker — is reported as a Diagnostic with a stable
// code, a severity, the stage that found it and (when the fault has a
// textual source) a byte-offset/line/column span.
//
// The package exists so that parse errors, hierarchy findings and
// check findings share one ordering contract and one renderer (text and
// JSON; see render.go) instead of three ad-hoc string formats. It is
// stdlib-only, like internal/guard, so every layer can depend on it
// without cycles.
//
// Ordering contract: a sorted Set lists located diagnostics first in
// source order (byte offset, then line/column), then unlocated ones by
// severity (errors first), stage, code, device, net and finally
// message. Producers that emit in deterministic order stay sorted; Sort
// is a stable re-establishment of the contract after merges.
package diag

import (
	"fmt"
	"sort"
)

// Severity grades diagnostics.
type Severity int8

const (
	// Info is advisory: nothing was lost or altered.
	Info Severity = iota

	// Warning marks input that was understood but looks wrong, or
	// geometry that was deliberately dropped (unknown layers, snapped
	// rotations). Extraction output is still complete with respect to
	// the understood input.

	Warning

	// Error marks input the front end could not understand; in lenient
	// mode the damaged region was skipped and the rest salvaged, in
	// strict mode the run fails on the first one.
	Error
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	}
	return "info"
}

// Span locates a diagnostic in source text. The zero Span (Line == 0)
// means "no source location" — findings about the extracted circuit
// rather than the input text.
type Span struct {
	Offset int // byte offset into the source, 0-based
	Line   int // 1-based; 0 means unlocated
	Col    int // 1-based byte column within the line
}

// Located reports whether the span carries a real source position.
func (sp Span) Located() bool { return sp.Line > 0 }

func (sp Span) String() string {
	if !sp.Located() {
		return ""
	}
	return fmt.Sprintf("%d:%d", sp.Line, sp.Col)
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	// Code is the stable machine-readable identifier, e.g.
	// "missing-semicolon" or "malformed-transistor". Codes never carry
	// positional or quantitative detail; that lives in Message.
	Code string

	// Severity grades the finding.
	Severity Severity

	// Stage names the pipeline stage that produced the finding, using
	// the guard stage vocabulary ("cif/parse", "frontend/stream",
	// "check", …).
	Stage string

	// Message is the human-readable description.
	Message string

	// Span locates the finding in the source text, when it has one.
	Span Span

	// Device and Net index into the extracted netlist for findings
	// about the circuit rather than the text; -1 when not applicable.
	// (The zero Diagnostic has 0 here; producers of circuit-level
	// findings must set both explicitly, and New sets them to -1.)
	Device int
	Net    int
}

// New returns a Diagnostic with Device and Net initialised to "none".
func New(sev Severity, stage, code, message string) Diagnostic {
	return Diagnostic{
		Code: code, Severity: sev, Stage: stage, Message: message,
		Device: -1, Net: -1,
	}
}

// String renders one diagnostic in the text form the renderer emits:
// "line:col: severity: code: message" when located,
// "severity: code: message" otherwise.
func (d Diagnostic) String() string {
	if d.Span.Located() {
		return fmt.Sprintf("%s: %s: %s: %s", d.Span, d.Severity, d.Code, d.Message)
	}
	return fmt.Sprintf("%s: %s: %s", d.Severity, d.Code, d.Message)
}

// DefaultMaxDiagnostics caps a Set when no explicit limit is given: a
// hostile input must not be able to turn one diagnostic per byte into
// an unbounded allocation (guard.Limits-style budgeting — the cap binds
// where the memory would be committed).
const DefaultMaxDiagnostics = 1000

// Limits caps a diagnostics set, in the style of guard.Limits. The
// zero value applies DefaultMaxDiagnostics; a negative MaxDiagnostics
// means unlimited.
type Limits struct {
	MaxDiagnostics int
}

// Max returns the effective cap (0 means unlimited).
func (l Limits) Max() int {
	switch {
	case l.MaxDiagnostics > 0:
		return l.MaxDiagnostics
	case l.MaxDiagnostics < 0:
		return 0
	}
	return DefaultMaxDiagnostics
}

// Set accumulates diagnostics under a cap. The zero value is a valid,
// empty set capped at DefaultMaxDiagnostics. Sets are not synchronised;
// each pipeline stage collects into its own and the driver merges.
type Set struct {
	list    []Diagnostic
	dropped int
	limits  Limits
}

// NewSet returns an empty set with the given cap.
func NewSet(l Limits) *Set { return &Set{limits: l} }

// SetLimits replaces the cap (affects subsequent Adds only).
func (s *Set) SetLimits(l Limits) { s.limits = l }

// Add records one diagnostic, dropping (and counting) it when the set
// is at capacity. Errors are never dropped in favour of retained
// warnings: at capacity, an incoming Error evicts the last non-Error
// entry if there is one.
func (s *Set) Add(d Diagnostic) {
	if max := s.limits.Max(); max > 0 && len(s.list) >= max {
		if d.Severity == Error {
			for i := len(s.list) - 1; i >= 0; i-- {
				if s.list[i].Severity != Error {
					copy(s.list[i:], s.list[i+1:])
					s.list[len(s.list)-1] = d
					s.dropped++
					return
				}
			}
		}
		s.dropped++
		return
	}
	s.list = append(s.list, d)
}

// AddAll records each diagnostic in ds.
func (s *Set) AddAll(ds []Diagnostic) {
	for _, d := range ds {
		s.Add(d)
	}
}

// Merge folds another set into this one, including its dropped count.
func (s *Set) Merge(o *Set) {
	if o == nil {
		return
	}
	s.AddAll(o.list)
	s.dropped += o.dropped
}

// All returns the recorded diagnostics (the set's own slice: callers
// must not mutate it).
func (s *Set) All() []Diagnostic {
	if s == nil {
		return nil
	}
	return s.list
}

// Len reports the number of retained diagnostics.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.list)
}

// Dropped reports how many diagnostics the cap discarded.
func (s *Set) Dropped() int {
	if s == nil {
		return 0
	}
	return s.dropped
}

// Count tallies retained diagnostics by severity.
func (s *Set) Count() (errors, warnings int) {
	if s == nil {
		return 0, 0
	}
	return Count(s.list)
}

// Errors reports the number of Error-severity diagnostics retained.
func (s *Set) Errors() int {
	e, _ := s.Count()
	return e
}

// Sort establishes the package ordering contract (stable, so producers
// that emit several diagnostics at one position keep their emission
// order).
func (s *Set) Sort() {
	if s == nil {
		return
	}
	sort.SliceStable(s.list, func(i, j int) bool {
		return Less(s.list[i], s.list[j])
	})
}

// Count tallies diagnostics by severity.
func Count(ds []Diagnostic) (errors, warnings int) {
	for _, d := range ds {
		switch d.Severity {
		case Error:
			errors++
		case Warning:
			warnings++
		}
	}
	return
}

// Less is the package ordering: located before unlocated; located by
// source position; unlocated by severity (errors first), then stage,
// code, device, net, message.
func Less(a, b Diagnostic) bool {
	al, bl := a.Span.Located(), b.Span.Located()
	if al != bl {
		return al
	}
	if al {
		if a.Span.Offset != b.Span.Offset {
			return a.Span.Offset < b.Span.Offset
		}
		if a.Span.Line != b.Span.Line {
			return a.Span.Line < b.Span.Line
		}
		if a.Span.Col != b.Span.Col {
			return a.Span.Col < b.Span.Col
		}
	}
	if a.Severity != b.Severity {
		return a.Severity > b.Severity // Error sorts first
	}
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	if a.Code != b.Code {
		return a.Code < b.Code
	}
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	if a.Net != b.Net {
		return a.Net < b.Net
	}
	return a.Message < b.Message
}
