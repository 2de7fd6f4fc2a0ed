package extract

import (
	"context"
	"time"

	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/scan"
	"ace/internal/tile"
)

// TileIO reports the I/O a tiled extraction performed, against the
// file's totals — the evidence that a windowed query touched O(window)
// tiles and a banded run read each tile once (plus quantile probes).
type TileIO struct {
	BytesRead    int64 // payload + index bytes fetched
	TilesDecoded int64 // tile payloads decoded (with checksum verify)
	TilesTotal   int64 // non-empty tiles in the file
	FileBytes    int64 // total file size
}

// Tiles extracts a packed tile file on a nil Engine; see Engine.Tiles.
func Tiles(r *tile.Reader, opt Options) (*Result, error) {
	var e *Engine
	return e.Tiles(nil, r, opt)
}

// Tiles extracts a design from a packed tile file instead of CIF.
// Serial runs (Workers 0 or 1) read the whole chip top-down, one tile
// row at a time, on a producer goroutine: it fetches, checksums,
// decodes and filters the next row at guard stage tile/read while the
// caller's goroutine merges the row before it straight into the sweep,
// the two rows handed over through the pipe Engine.File uses.
// Workers>1 gives every band sweeper a
// random-access iterator over exactly its band's tile ranges, clipped
// at the cuts as scan.ParallelSweepSources requires. The wirelist is
// byte-identical to the CIF pipeline at every Workers setting (with
// KeepGeometry, a rectangle a band seam crosses is listed as its two
// halves), but peak memory is the tile working set, not the chip. A
// corrupt tile fails the call with its *tile.CorruptError, whatever
// the sweep made of the boxes before it. A non-nil Engine attaches r
// to its tile scratch pool, lifting the per-iterator decode arenas to
// Engine lifetime, and pools the pipe; give each Reader one Engine.
// Cancellation is as in Engine.File.
func (e *Engine) Tiles(ctx context.Context, r *tile.Reader, opt Options) (res *Result, err error) {
	defer guard.Recover(guard.StageExtract, &err)
	if err := guard.Inject(guard.StageExtract); err != nil {
		return nil, err
	}
	if e != nil {
		r.SetArena(e.tl)
	}
	t0 := time.Now()
	n := r.NumBoxes()
	if err := opt.Limits.CheckBoxes(guard.StageTileRead, n); err != nil {
		return nil, err
	}
	io0 := r.Counters()

	sopt := scan.Options{
		KeepGeometry:  opt.KeepGeometry,
		Labels:        r.Labels(),
		InsertionSort: opt.InsertionSort,
		Ctx:           ctx,
		Limits:        opt.Limits,
		Pool:          e.scanPool(),
	}

	var cuts []int64
	if opt.Workers > 1 {
		if cuts, err = tileCuts(r, opt.Workers); err != nil {
			return nil, err
		}
	}
	var sres *scan.Result
	var iters []*tile.Iter
	var busy, wait time.Duration
	if len(cuts) == 0 {
		it := r.ReadBand(tile.WholeChip())
		iters = []*tile.Iter{it}
		sres, busy, wait, err = e.sweepTiles(ctx, it, sopt)
	} else {
		iters = r.Sources(cuts)
		srcs := make([]scan.Source, len(iters))
		for i, it := range iters {
			srcs[i] = it
		}
		sres, err = scan.ParallelSweepSources(srcs, cuts, int(n), sopt)
	}
	// A corrupt tile ends its iterator early (scan.Source has no error
	// channel), so the sweep can "succeed" on a truncated band: the
	// iterator's own error is the root cause and takes precedence. Every
	// reader of the iterators has returned by now.
	for _, it := range iters {
		if ierr := it.Err(); ierr != nil {
			return nil, ierr
		}
	}
	if err != nil {
		return nil, err
	}

	out := tileResult(r, sres, io0)
	out.Phases.Total = time.Since(t0)
	if opt.Profile {
		if len(cuts) == 0 {
			out.Phases.setPiped(sres.Timing, busy, wait)
		} else {
			out.Phases.Insert = sres.Timing.Insert
			out.Phases.Devices = sres.Timing.Devices
			out.Phases.Output = sres.Timing.Output
		}
	}
	return out, nil
}

// tileCuts picks the band cuts of a Workers-wide tile sweep at
// box-count quantiles of the file's tops: the quantile ranks resolve
// through the row index, decoding only the tile rows the probes land
// in. No cuts means the file is too small to band, and Tiles sweeps it
// serially.
func tileCuts(r *tile.Reader, workers int) ([]int64, error) {
	n := int(r.NumBoxes())
	bands := scan.EffectiveBands(n, workers)
	if bands < 2 {
		return nil, nil
	}
	var cache tile.RowTopsCache
	var topErr error
	cuts := scan.CutsFromTopsFunc(n, func(i int) int64 {
		t, err := r.TopAt(int64(i), &cache)
		if err != nil && topErr == nil {
			topErr = err
		}
		return t
	}, bands)
	if topErr != nil {
		return nil, topErr
	}
	return cuts, nil
}

// sweepTiles runs the serial sweep over it through a pooled pipe, the
// iterator's rows read on the producer goroutine and merged on this
// one, releases the iterator's scratch, and returns the producer's
// busy time and the sweep's wait on it.
func (e *Engine) sweepTiles(ctx context.Context, it *tile.Iter, opt scan.Options) (*scan.Result, time.Duration, time.Duration, error) {
	p := e.getPipe()
	sres, err := p.sweepTiles(ctx, it, opt)
	busy, wait := p.busy, p.wait
	e.putPipe(p)
	it.Release()
	return sres, busy, wait, err
}

// TileWindow extracts one window of a packed tile file on a nil
// Engine; see Engine.TileWindow.
func TileWindow(ctx context.Context, r *tile.Reader, rect geom.Rect, opt Options) (*Result, error) {
	var e *Engine
	return e.TileWindow(ctx, r, rect, opt)
}

// TileWindow extracts only the geometry overlapping rect from a packed
// tile file: boxes are clipped to the window, labels filtered to it,
// and — the point of the format — only tiles whose index bbox
// intersects the window are read or decoded. Result.Tile records the
// I/O so callers can verify the O(window) claim. The sweep is serial
// at every Workers setting and piped as in a serial Tiles, the
// window's next tile row read on the producer goroutine while this one
// merges the row before it; the Engine is used as in Tiles.
func (e *Engine) TileWindow(ctx context.Context, r *tile.Reader, rect geom.Rect, opt Options) (res *Result, err error) {
	defer guard.Recover(guard.StageExtract, &err)
	if err := guard.Inject(guard.StageExtract); err != nil {
		return nil, err
	}
	if e != nil {
		r.SetArena(e.tl)
	}
	t0 := time.Now()
	io0 := r.Counters()

	it := r.ReadWindow(rect)
	sres, busy, wait, err := e.sweepTiles(ctx, it, scan.Options{
		KeepGeometry:  opt.KeepGeometry,
		Labels:        r.WindowLabels(rect),
		InsertionSort: opt.InsertionSort,
		Ctx:           ctx,
		Limits:        opt.Limits,
		Pool:          e.scanPool(),
	})
	if ierr := it.Err(); ierr != nil {
		return nil, ierr
	}
	if err != nil {
		return nil, err
	}

	out := tileResult(r, sres, io0)
	out.Phases.Total = time.Since(t0)
	if opt.Profile {
		out.Phases.setPiped(sres.Timing, busy, wait)
	}
	return out, nil
}

// tileResult wraps a tiled sweep's result with the I/O it added on top
// of io0.
func tileResult(r *tile.Reader, sres *scan.Result, io0 tile.Counters) *Result {
	io1 := r.Counters()
	return &Result{
		Netlist:  sres.Netlist,
		Counters: sres.Counters,
		Warnings: sres.Warnings,
		Tile: &TileIO{
			BytesRead:    io1.BytesRead - io0.BytesRead,
			TilesDecoded: io1.TilesDecoded - io0.TilesDecoded,
			TilesTotal:   r.NonEmptyTiles(),
			FileBytes:    r.Size(),
		},
	}
}
