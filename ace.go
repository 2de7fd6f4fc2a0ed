// Package ace is a reproduction of "ACE: A Circuit Extractor" (Anoop
// Gupta, CMU / DAC 1983) and its companion "HEXT: A Hierarchical
// Circuit Extractor" (Gupta & Hon, 1982): circuit extractors for NMOS
// layouts in CIF.
//
// The flat extractor reads a CIF design and produces a wirelist — the
// transistors and nets the artwork denotes — using an edge-based
// scanline algorithm whose observed running time is linear in the
// number of boxes. The hierarchical extractor partitions the design
// into non-overlapping windows, extracts each unique window once, and
// composes adjacent windows by matching their boundary interfaces.
//
// Quick start:
//
//	f, _ := os.Open("chip.cif")
//	res, err := ace.Extract(f, ace.Options{})
//	if err != nil { ... }
//	fmt.Println(res.Netlist.Stats())
//	ace.WriteWirelist(os.Stdout, res.Netlist, ace.WirelistOptions{})
//
// The subsystems live in internal packages: internal/cif (parser),
// internal/frontend (lazy instantiation), internal/scan (the scanline
// back end), internal/hext (the hierarchical extractor), plus the
// baselines internal/raster (Partlist) and internal/cifplot, and the
// downstream tools internal/sim, internal/check and internal/rcx.
package ace

import (
	"io"

	"ace/internal/cif"
	"ace/internal/diag"
	"ace/internal/extract"
	"ace/internal/hext"
	"ace/internal/netlist"
	"ace/internal/wirelist"
)

// Options configures flat extraction; see extract.Options.
type Options = extract.Options

// Result is a flat extraction result; see extract.Result.
type Result = extract.Result

// Netlist is the extractor output: devices and nets.
type Netlist = netlist.Netlist

// unpooled is the nil Engine: every call builds its scratch afresh.
var unpooled *extract.Engine

// Extract runs the flat extractor (ACE) over CIF text from r.
func Extract(r io.Reader, opt Options) (*Result, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return unpooled.CIF(nil, src, opt)
}

// ExtractString runs the flat extractor over CIF source text.
func ExtractString(src string, opt Options) (*Result, error) {
	return unpooled.CIF(nil, []byte(src), opt)
}

// ExtractFile runs the flat extractor over an already-parsed design.
func ExtractFile(f *cif.File, opt Options) (*Result, error) {
	return extract.File(f, opt)
}

// ParseCIF parses CIF text without extracting, for callers that want
// to inspect or transform the design first.
func ParseCIF(r io.Reader) (*cif.File, error) { return cif.Parse(r) }

// HierOptions configures hierarchical extraction; see hext.Options.
type HierOptions = hext.Options

// HierResult is a hierarchical extraction result; see hext.Result.
type HierResult = hext.Result

// ExtractHierarchical runs HEXT over CIF text from r. It honours
// opt.Lenient: parse damage becomes located diagnostics in
// HierResult.Diagnostics instead of an error.
func ExtractHierarchical(r io.Reader, opt HierOptions) (*HierResult, error) {
	return hext.Reader(r, opt)
}

// ExtractHierarchicalFile runs HEXT over a parsed design.
func ExtractHierarchicalFile(f *cif.File, opt HierOptions) (*HierResult, error) {
	return hext.Extract(f, opt)
}

// WirelistOptions configures wirelist output.
type WirelistOptions = wirelist.Options

// WriteWirelist emits a netlist in the CMU wirelist format of
// Figure 3-4.
func WriteWirelist(w io.Writer, nl *Netlist, opt WirelistOptions) error {
	return wirelist.Write(w, nl, opt)
}

// ParseWirelist reads a flat wirelist back into a netlist.
func ParseWirelist(r io.Reader) (*Netlist, error) { return wirelist.Parse(r) }

// FlattenHierarchicalWirelist reads a hierarchical wirelist (as
// written by HierResult.WriteHierarchical) and returns the flattened
// netlist.
func FlattenHierarchicalWirelist(r io.Reader) (*Netlist, error) {
	return hext.ParseHierarchical(r)
}

// IncrementalSession returns a hierarchical extraction session whose
// window memo persists across Extract calls: re-extracting an edited
// design only analyses the windows that changed. Set
// HierOptions.CacheDir to also store each extracted design's result on
// disk, so a later process extracting the same design skips extraction.
func IncrementalSession(opt HierOptions) *hext.Session { return hext.NewSession(opt) }

// Edit is one symbol-granularity change for Session.Apply: replace,
// add or delete a symbol definition (or the top-level instance list)
// and re-extract, reusing every window whose content is unchanged.
type Edit = hext.Edit

// Equivalent reports whether two netlists describe the same circuit up
// to renumbering — the wirelist comparator of the paper's introduction.
func Equivalent(a, b *Netlist) (bool, string) { return netlist.Equivalent(a, b) }

// Diagnostic is one finding, the only form in which any layer reports
// one: a parser warning or (under Options.Lenient) a recovered fault,
// located in the source; a label that names no net (unmatched-label) or
// a second net (label-conflict); a cache directory HEXT could not open
// (cache-disabled); or a checker finding. Result.Diagnostics and
// HierResult.Diagnostics hold a run's findings.
type Diagnostic = diag.Diagnostic

// Diagnostics is an ordered, capped set of diagnostics.
type Diagnostics = diag.Set

// Severity ranks diagnostics; see the Info/Warning/Error constants.
type Severity = diag.Severity

// Diagnostic severities, mildest first.
const (
	Info    = diag.Info
	Warning = diag.Warning
	Error   = diag.Error
)

// WriteDiagnostics renders a diagnostics set as file:line:col text
// lines with a closing summary.
func WriteDiagnostics(w io.Writer, file string, s *Diagnostics) error {
	return diag.WriteText(w, file, s)
}

// WriteDiagnosticsJSON renders a diagnostics set as an indented,
// deterministic JSON report (the CLIs' -diag-json document).
func WriteDiagnosticsJSON(w io.Writer, file string, s *Diagnostics) error {
	return diag.WriteJSON(w, file, s)
}
