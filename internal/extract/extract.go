// Package extract ties ACE together: CIF in, wirelist out. It runs
// the front end (parse + lazy instantiate + sort) and the back end
// (scanline sweep) and reports the per-phase time distribution the
// paper measures in §5.
package extract

import (
	"context"
	"io"
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

	// Grid is the manhattanisation grid for non-manhattan geometry;
	// zero selects the front-end default.
	Grid int64

	// Profile fills Result.Phases. The CIF paths time themselves per
	// chunk or per phase whether or not it is set; a serial tiled
	// extraction adds two clock reads per box fetched, so leave it off
	// there for pure benchmarking runs.
	Profile bool

	// InsertionSort selects the paper's original per-box insertion
	// sort in the back end (see scan.Options.InsertionSort); used by
	// the ablation benchmark.
	InsertionSort bool

	// Workers selects the parallel sweep: the design is split into up
	// to Workers horizontal bands at scanline stop boundaries, each
	// band is swept concurrently, and the bands are stitched by
	// matching their boundary cross-sections (see scan.ParallelSweep).
	// Zero or one runs the serial sweep, with the front end feeding it
	// from a second goroutine. The parallel path
	// materialises the instantiated design up front, so serial wins on
	// small designs and when memory is tighter than time.
	Workers int

	// Limits are the extraction's resource budgets, enforced in the
	// parser (items), the front end (hierarchy depth; boxes and bytes
	// materialised for the band-parallel sweep) and the sweep (boxes
	// in, active-list footprint). Zero fields are unlimited except
	// depth, which defaults to guard.DefaultMaxDepth; violations
	// surface as *guard.LimitError with stage attribution.
	Limits guard.Limits

	// Lenient selects the fail-soft front end: parse errors, unresolved
	// symbol calls, recursive definitions and over-deep hierarchies are
	// recorded as located diagnostics in Result.Diagnostics and the
	// damaged input is skipped at the nearest resynchronisation point,
	// so every well-formed command still extracts. On a clean design
	// the wirelist is byte-identical to strict mode at every worker
	// setting. Resource budgets (Limits), cancellation and internal
	// panics abort exactly as in strict mode.
	Lenient bool

	// Diag caps the diagnostics a lenient extraction retains; the zero
	// value applies diag.DefaultMaxDiagnostics.
	Diag diag.Limits
}

// Phases is the paper's §5 time breakdown. Every phase but Wait and
// Total is busy time. On the serial CIF path the front end runs on its
// own goroutine, concurrently with Insert and Devices, so the busy
// phases can sum to more than Total (see Busy).
type Phases struct {
	Parse    time.Duration // parsing the CIF text
	FrontEnd time.Duration // instantiating and sorting geometry
	Insert   time.Duration // entering geometry into the active lists
	Devices  time.Duration // computing devices and nets
	Output   time.Duration // building the output netlist
	Wait     time.Duration // sweep blocked on the front end (serial CIF path)
	Total    time.Duration
}

// Misc returns the wall time not covered by a busy phase. With
// Workers > 1 the sweep phases are CPU sums across bands, and on the
// serial path the front end overlaps the sweep, so the busy phases can
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
	Warnings []string

	// Diagnostics carries the unified findings of the run, sorted by
	// the diag ordering contract: parser warnings always, plus — in
	// lenient mode — every recovered fault. Error-severity entries mean
	// parts of the input were skipped; the wirelist covers the rest.
	Diagnostics diag.Set

	// Tile reports disk I/O when the design came from a packed tile
	// file (Tiles / TileWindow); nil for the CIF pipelines.
	Tile *TileIO
}

// Reader extracts a CIF design from r.
func Reader(r io.Reader, opt Options) (*Result, error) {
	return ReaderContext(nil, r, opt)
}

// ReaderContext is Reader with cooperative cancellation: when ctx is
// cancelled or times out, the pipeline unwinds within one unit of
// work per stage (a scanline stop, a drained box chunk) and returns a
// stage-attributed error wrapping ctx.Err(). A nil ctx never cancels.
func ReaderContext(ctx context.Context, r io.Reader, opt Options) (*Result, error) {
	var e *Engine
	return e.ReaderContext(ctx, r, opt)
}

// String extracts a CIF design from source text.
func String(src string, opt Options) (*Result, error) {
	return StringContext(nil, src, opt)
}

// StringContext is String with cooperative cancellation (see
// ReaderContext).
func StringContext(ctx context.Context, src string, opt Options) (*Result, error) {
	var e *Engine
	return e.StringContext(ctx, src, opt)
}

// File extracts an already-parsed design.
func File(f *cif.File, opt Options) (*Result, error) {
	return FileContext(nil, f, opt)
}

// FileContext is File with cooperative cancellation (see
// ReaderContext). It is panic-isolated end to end: a panic in any
// pipeline stage — including worker goroutines — surfaces as a
// *guard.PanicError naming the stage, never as a process crash.
func FileContext(ctx context.Context, f *cif.File, opt Options) (*Result, error) {
	return fileContext(nil, ctx, f, opt)
}

// fileContext is the shared body of FileContext and Engine.FileContext;
// a nil engine means no pooling.
func fileContext(e *Engine, ctx context.Context, f *cif.File, opt Options) (res *Result, err error) {
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
	// first, then the front end's unlocated ones.
	res.Diagnostics.SetLimits(opt.Diag)
	res.Diagnostics.Merge(&f.Diagnostics)
	res.Diagnostics.Merge(&ds)
	res.Diagnostics.Sort()
	return res, nil
}

func fileCtx(e *Engine, ctx context.Context, f *cif.File, opt Options, ds *diag.Set) (*Result, error) {
	t0 := time.Now()
	stream, err := frontend.New(f, frontend.Options{
		Grid: opt.Grid, Limits: opt.Limits, Lenient: opt.Lenient, Diags: ds,
		Arena: e.feArena(),
	})
	if err != nil {
		return nil, err
	}

	if opt.Workers > 1 {
		return parallelFile(e, ctx, f, stream, opt, t0)
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
	sres, err := p.sweep(ctx, stream, scan.Options{
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

	out := &Result{
		Netlist:  sres.Netlist,
		Counters: sres.Counters,
		Frontend: stream.Stats(),
		Warnings: append(f.Warnings, sres.Warnings...),
	}
	// The stream is fully drained and everything kept is copied; its
	// heap and label capacity can serve the next extraction.
	e.feArena().PutStream(stream)
	out.Phases.Total = time.Since(t0)
	if opt.Profile {
		out.Phases.FrontEnd = setup + busy
		out.Phases.Wait = wait
		// The sweep blocks on the pipe inside its insert phase; that
		// wait is not insertion work.
		out.Phases.Insert = max(sres.Timing.Insert-wait, 0)
		out.Phases.Devices = sres.Timing.Devices
		out.Phases.Output = sres.Timing.Output
	}
	return out, nil
}

// parallelFile is the Workers > 1 path of File: it materialises the
// instantiated design (the band partitioner needs the full box list)
// and runs the band-sharded sweep.
func parallelFile(e *Engine, ctx context.Context, f *cif.File, stream *frontend.Stream, opt Options, t0 time.Time) (*Result, error) {
	tFE := time.Now()
	// Labels are forced before the drain so their order matches the
	// serial path: Labels() on an undrained stream
	// expands only label-bearing subtrees in a fixed order, whereas
	// labels collected during a full drain surface in heap-pop order.
	labels := stream.Labels()
	if err := stream.Err(); err != nil {
		return nil, err
	}
	pool := e.scanPool()
	boxes, err := drainLimited(ctx, stream, opt.Limits, pool.GetBoxBuf())
	if err != nil {
		return nil, err
	}
	fe := time.Since(tFE)

	res, err := scan.ParallelSweep(boxes, scan.Options{
		KeepGeometry:  opt.KeepGeometry,
		Labels:        labels,
		InsertionSort: opt.InsertionSort,
		Ctx:           ctx,
		Limits:        opt.Limits,
		Pool:          pool,
	}, opt.Workers)
	if err != nil {
		return nil, err
	}

	out := &Result{
		Netlist:  res.Netlist,
		Counters: res.Counters,
		Frontend: stream.Stats(),
		Warnings: append(f.Warnings, res.Warnings...),
	}
	// The materialised box list and the drained stream are dead once
	// the sweep has finished (the Result copies what it keeps).
	pool.PutBoxBuf(boxes)
	e.feArena().PutStream(stream)
	out.Phases.Total = time.Since(t0)
	if opt.Profile {
		out.Phases.FrontEnd = fe
		// Band times overlap in wall-clock; report their sum, which is
		// the CPU the sweep consumed.
		out.Phases.Insert = res.Timing.Insert
		out.Phases.Devices = res.Timing.Devices
		out.Phases.Output = res.Timing.Output
	}
	return out, nil
}

// drainLimited materialises the stream like frontend.Stream.Drain, but
// re-checks cancellation and the box/memory budgets every chunk so a
// runaway instantiation fails fast instead of exhausting memory before
// the sweep ever runs.
func drainLimited(ctx context.Context, stream *frontend.Stream, limits guard.Limits, buf []frontend.Box) ([]frontend.Box, error) {
	const chunk = 4096
	out := buf[:0]
	for {
		b, ok := stream.Next()
		if !ok {
			if err := limits.CheckBoxes(guard.StageFrontend, int64(len(out))); err != nil {
				return nil, err
			}
			return out, nil
		}
		out = append(out, b)
		if len(out)%chunk == 0 {
			if err := guard.Ctx(ctx, guard.StageFrontend); err != nil {
				return nil, err
			}
			if err := limits.CheckBoxes(guard.StageFrontend, int64(len(out))); err != nil {
				return nil, err
			}
			if err := limits.CheckMem(guard.StageFrontend, int64(len(out))*guard.BoxBytes+stream.PendingBytes()); err != nil {
				return nil, err
			}
		}
	}
}

// timedSource measures the time spent inside the front end.
type timedSource struct {
	inner scan.Source
	spent time.Duration
}

func (t *timedSource) NextTop() (int64, bool) {
	s := time.Now()
	y, ok := t.inner.NextTop()
	t.spent += time.Since(s)
	return y, ok
}

func (t *timedSource) Next() (frontend.Box, bool) {
	s := time.Now()
	b, ok := t.inner.Next()
	t.spent += time.Since(s)
	return b, ok
}
