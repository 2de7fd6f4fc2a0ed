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

// Tiles extracts a design from a packed tile file instead of CIF. The
// sweep pulls boxes straight off the file's band iterators: serial
// runs read the whole chip top-down one tile row at a time; Workers>1
// gives every band sweeper a random-access iterator over exactly its
// band's tile ranges, clipped at the cuts as scan.ParallelSweepSources
// requires. The wirelist is byte-identical to the CIF pipeline at every
// Workers setting (with KeepGeometry, a rectangle a band seam crosses
// is listed as its two halves), but peak memory is the tile working
// set, not the chip. A non-nil Engine attaches r to its tile
// scratch pool, lifting the per-iterator decode arenas to Engine
// lifetime; give each Reader one Engine. Cancellation is as in
// Engine.File.
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
	if err := opt.Limits.CheckBoxes(guard.StageFrontend, n); err != nil {
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

	var sres *scan.Result
	var iters []*tile.Iter
	var timed *timedSource
	serial := func() (*scan.Result, error) {
		it := r.ReadBand(tile.WholeChip())
		iters = []*tile.Iter{it}
		var src scan.Source = it
		if opt.Profile {
			timed = &timedSource{inner: src}
			src = timed
		}
		return scan.Sweep(src, sopt)
	}
	if opt.Workers > 1 {
		// Cut at box-count quantiles of the file's tops: the quantile
		// ranks resolve through the row index, decoding only the tile
		// rows the probes land in.
		bands := scan.EffectiveBands(int(n), opt.Workers)
		var cuts []int64
		var topErr error
		if bands >= 2 {
			var cache tile.RowTopsCache
			cuts = scan.CutsFromTopsFunc(int(n), func(i int) int64 {
				t, err := r.TopAt(int64(i), &cache)
				if err != nil && topErr == nil {
					topErr = err
				}
				return t
			}, bands)
		}
		if topErr != nil {
			return nil, topErr
		}
		if len(cuts) == 0 {
			sres, err = serial()
		} else {
			iters = r.Sources(cuts)
			srcs := make([]scan.Source, len(iters))
			for i, it := range iters {
				srcs[i] = it
			}
			sres, err = scan.ParallelSweepSources(srcs, cuts, int(n), sopt)
		}
	} else {
		sres, err = serial()
	}
	// A corrupt tile makes its iterator fake exhaustion (scan.Source has
	// no error channel), so the sweep can "succeed" on a truncated band:
	// the iterator's own error is the root cause and takes precedence.
	for _, it := range iters {
		if ierr := it.Err(); ierr != nil {
			return nil, ierr
		}
	}
	if err != nil {
		return nil, err
	}

	out := &Result{
		Netlist:  sres.Netlist,
		Counters: sres.Counters,
		Warnings: sres.Warnings,
		Tile:     tileIODelta(r, io0),
	}
	out.Phases.Total = time.Since(t0)
	if opt.Profile {
		if timed != nil {
			out.Phases.FrontEnd = timed.spent
			out.Phases.Insert = sres.Timing.Insert - timed.spent
			if out.Phases.Insert < 0 {
				out.Phases.Insert = 0
			}
		} else {
			out.Phases.Insert = sres.Timing.Insert
		}
		out.Phases.Devices = sres.Timing.Devices
		out.Phases.Output = sres.Timing.Output
	}
	return out, nil
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
// at every Workers setting; the Engine is used as in Tiles.
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
	sres, err := scan.Sweep(it, scan.Options{
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

	out := &Result{
		Netlist:  sres.Netlist,
		Counters: sres.Counters,
		Warnings: sres.Warnings,
		Tile:     tileIODelta(r, io0),
	}
	out.Phases.Total = time.Since(t0)
	return out, nil
}

// tileIODelta snapshots the I/O this extraction added on top of io0.
func tileIODelta(r *tile.Reader, io0 tile.Counters) *TileIO {
	io1 := r.Counters()
	return &TileIO{
		BytesRead:    io1.BytesRead - io0.BytesRead,
		TilesDecoded: io1.TilesDecoded - io0.TilesDecoded,
		TilesTotal:   r.NonEmptyTiles(),
		FileBytes:    r.Size(),
	}
}
