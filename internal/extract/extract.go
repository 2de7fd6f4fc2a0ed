// Package extract ties ACE together: CIF in, wirelist out. It runs
// the front end (parse + lazy instantiate + sort) and the back end
// (scanline sweep) and reports the per-phase time distribution the
// paper measures in §5.
package extract

import (
	"context"
	"time"

	"ace/internal/cif"
	"ace/internal/diag"
	"ace/internal/frontend"
	"ace/internal/guard"
	"ace/internal/netlist"
	"ace/internal/scan"
)

// Options configures an extraction.
type Options struct {
	// KeepGeometry records net and device geometry in the output
	// (ACE's user option; off by default exactly as in the paper:
	// "Under normal operation this is suppressed").
	KeepGeometry bool

	// InsertionSort selects the paper's original per-box insertion
	// sort in the back end (see scan.Options.InsertionSort); used by
	// the ablation benchmark.
	InsertionSort bool

	// Limits are the extraction's resource budgets, enforced in the
	// parser (items), the front end (hierarchy depth; the pending heap
	// and forced labels) and the sweep (boxes in, active-list
	// footprint plus the geometry still pending upstream). Zero fields
	// are unlimited except depth, which defaults to
	// guard.DefaultMaxDepth; violations surface as *guard.LimitError
	// with stage attribution.
	Limits guard.Limits

	// Lenient selects the fail-soft front end: parse errors, unresolved
	// symbol calls, recursive definitions and over-deep hierarchies are
	// recorded as located diagnostics in Result.Diagnostics and the
	// damaged input is skipped at the nearest resynchronisation point,
	// so every well-formed command still extracts. On a clean design
	// the wirelist is byte-identical to strict mode. Resource budgets
	// (Limits), cancellation and internal panics abort exactly as in
	// strict mode.
	Lenient bool

	// Diag caps the diagnostics a lenient extraction retains; the zero
	// value applies diag.DefaultMaxDiagnostics.
	Diag diag.Limits
}

// Phases is the paper's §5 time breakdown. Every phase but Wait and
// Total is busy time. On a serial sweep the front end — the CIF
// stream, or the tile reader — runs on its own goroutine, concurrently
// with Insert and Devices, so the busy phases can sum to more than
// Total (see Busy).
type Phases struct {
	Parse    time.Duration // parsing the CIF text (Engine.CIF; excludes reading it)
	FrontEnd time.Duration // instantiating and sorting geometry, or reading it from tiles
	Insert   time.Duration // entering geometry into the active lists
	Devices  time.Duration // computing devices and nets
	Output   time.Duration // building the output netlist
	Wait     time.Duration // serial sweep blocked on the front end
	Total    time.Duration
}

// Misc returns the wall time not covered by a busy phase. The front end
// (or the tile reader) overlaps the sweep, so the busy phases can
// exceed Total and Misc is clamped at zero.
func (p Phases) Misc() time.Duration {
	m := p.Total - p.Parse - p.FrontEnd - p.Insert - p.Devices - p.Output
	if m < 0 {
		return 0
	}
	return m
}

// Busy is the summed busy time: every phase plus Misc. Busy/Total is
// the run's overlap factor, 1 when nothing ran concurrently.
func (p Phases) Busy() time.Duration {
	return p.Parse + p.FrontEnd + p.Insert + p.Devices + p.Output + p.Misc()
}

// Result is a completed extraction.
type Result struct {
	Netlist  *netlist.Netlist
	Counters scan.Counters
	Frontend frontend.Stats
	Phases   Phases

	// Diagnostics carries every finding of the run, sorted by the diag
	// ordering contract and capped by Options.Diag: the parser's
	// warnings and the sweep's (unmatched-label, label-conflict), plus —
	// in lenient mode — every recovered fault. Error-severity entries
	// mean parts of the input were skipped; the wirelist covers the
	// rest. The set is the Result's own.
	Diagnostics diag.Set

	// Tile reports disk I/O when the design came from a packed tile
	// file (Tiles / TileWindow); nil for the CIF pipelines.
	Tile *TileIO
}

// File extracts an already-parsed design on a nil Engine: nothing is
// pooled and nothing cancels. See Engine.File.
func File(f *cif.File, opt Options) (*Result, error) {
	var e *Engine
	return e.File(nil, f, opt)
}

// File extracts an already-parsed design, reusing the Engine's pools
// for everything downstream of the parse. When ctx is cancelled or
// times out, the pipeline unwinds within one unit of work per stage (a
// scanline stop, a drained box chunk) and returns a stage-attributed
// error wrapping ctx.Err(); a nil ctx never cancels. It is
// panic-isolated end to end: a panic in any pipeline stage — including
// the front end's producer goroutine — surfaces as a *guard.PanicError
// naming the stage, never as a process crash.
func (e *Engine) File(ctx context.Context, f *cif.File, opt Options) (res *Result, err error) {
	defer guard.Recover(guard.StageExtract, &err)
	if err := guard.Inject(guard.StageExtract); err != nil {
		return nil, err
	}
	var ds diag.Set
	ds.SetLimits(opt.Diag)
	res, err = fileCtx(e, ctx, f, opt, &ds)
	if err != nil {
		return nil, err
	}
	// One merged, contract-ordered set: the parser's located findings
	// first, then the front end's and the sweep's unlocated ones.
	res.Diagnostics.SetLimits(opt.Diag)
	res.Diagnostics.Merge(&f.Diagnostics)
	res.Diagnostics.Merge(&ds)
	res.Diagnostics.Sort()
	return res, nil
}

func fileCtx(e *Engine, ctx context.Context, f *cif.File, opt Options, ds *diag.Set) (*Result, error) {
	t0 := time.Now()
	stream, err := frontend.New(f, frontend.Options{
		Limits: opt.Limits, Lenient: opt.Lenient, Diags: ds,
		Arena: e.feArena(),
	})
	if err != nil {
		return nil, err
	}

	// The sweep needs the labels up front; forcing them early costs
	// one walk of the call heap and keeps the sweep single-pass.
	labels := stream.Labels()
	if err := stream.Err(); err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	// The stream's Next loop runs on its own goroutine, feeding the
	// sweep on this one.
	p := e.getPipe()
	sres, err := p.sweepStream(ctx, stream, scan.Options{
		KeepGeometry:  opt.KeepGeometry,
		Labels:        labels,
		InsertionSort: opt.InsertionSort,
		Ctx:           ctx,
		Limits:        opt.Limits,
		Pool:          e.scanPool(),
	})
	busy, wait := p.busy, p.wait
	e.putPipe(p)
	if err != nil {
		return nil, err
	}

	ds.AddAll(sres.Diagnostics)
	out := &Result{
		Netlist:  sres.Netlist,
		Counters: sres.Counters,
		Frontend: stream.Stats(),
	}
	// The stream is fully drained and everything kept is copied; its
	// heap and label capacity can serve the next extraction.
	e.feArena().PutStream(stream)
	out.Phases.Total = time.Since(t0)
	out.Phases.setPiped(sres.Timing, setup+busy, wait)
	return out, nil
}

// setPiped fills the phases of a piped serial sweep: frontEnd is the
// producer's busy time plus any setup before it started, and wait the
// sweep's time blocked on the pipe. The sweep blocks inside its insert
// phase; that wait is not insertion work.
func (p *Phases) setPiped(t scan.Timing, frontEnd, wait time.Duration) {
	p.FrontEnd = frontEnd
	p.Wait = wait
	p.Insert = max(t.Insert-wait, 0)
	p.Devices = t.Devices
	p.Output = t.Output
}
