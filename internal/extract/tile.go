package extract

import (
	"context"
	"time"

	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/scan"
	"ace/internal/tile"
)

// TileIO reports the I/O a tiled extraction performed, against the
// file's totals — the evidence that a windowed query touched O(window)
// tiles and that every read decoded each tile it touched once.
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

// Tiles extracts a design from a packed tile file instead of CIF. It
// reads the whole chip top-down, one tile row at a time, on a producer
// goroutine: it fetches, checksums, decodes and filters the next row
// at guard stage tile/read while the caller's goroutine merges the row
// before it straight into the sweep, the two rows handed over through
// the pipe Engine.File uses. The wirelist is byte-identical to the CIF
// pipeline's, with and without KeepGeometry, but peak memory is the
// tile working set, not the chip. A file holding more boxes than
// Limits.MaxBoxes is refused at tile/read before a tile is read. A
// corrupt tile fails the call with its *tile.CorruptError, whatever
// the sweep made of the boxes before it. A non-nil Engine attaches r
// to its tile scratch pool, lifting the per-iterator decode arenas to
// Engine lifetime, and pools the pipe; give each Reader one Engine.
// Cancellation is as in Engine.File.
func (e *Engine) Tiles(ctx context.Context, r *tile.Reader, opt Options) (*Result, error) {
	return e.tiles(ctx, r, nil, opt)
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
// intersects the window are read or decoded, each once. Result.Tile
// records the I/O so callers can verify the O(window) claim. The sweep
// is piped as in Tiles, the window's next tile row read on the
// producer goroutine while this one merges the row before it; the
// Engine is used as in Tiles.
func (e *Engine) TileWindow(ctx context.Context, r *tile.Reader, rect geom.Rect, opt Options) (*Result, error) {
	return e.tiles(ctx, r, &rect, opt)
}

// tiles is Tiles when win is nil and TileWindow over *win otherwise.
func (e *Engine) tiles(ctx context.Context, r *tile.Reader, win *geom.Rect, opt Options) (res *Result, err error) {
	defer guard.Recover(guard.StageExtract, &err)
	if err := guard.Inject(guard.StageExtract); err != nil {
		return nil, err
	}
	if e != nil {
		r.SetArena(e.tl)
	}
	t0 := time.Now()
	io0 := r.Counters()
	var it *tile.Iter
	var labels []frontend.Label
	if win == nil {
		if err := opt.Limits.CheckBoxes(guard.StageTileRead, r.NumBoxes()); err != nil {
			return nil, err
		}
		it, labels = r.ReadBand(tile.WholeChip()), r.Labels()
	} else {
		it, labels = r.ReadWindow(*win), r.WindowLabels(*win)
	}

	p := e.getPipe()
	sres, err := p.sweepTiles(ctx, it, scan.Options{
		KeepGeometry:  opt.KeepGeometry,
		Labels:        labels,
		InsertionSort: opt.InsertionSort,
		Ctx:           ctx,
		Limits:        opt.Limits,
		Pool:          e.scanPool(),
	})
	busy, wait := p.busy, p.wait
	e.putPipe(p)
	it.Release()
	// A corrupt tile ends the iterator early (scan.Source has no error
	// channel), so the sweep can "succeed" on a truncated stream: the
	// iterator's own error is the root cause and takes precedence. The
	// producer, the iterator's other reader, has been joined by now.
	if ierr := it.Err(); ierr != nil {
		return nil, ierr
	}
	if err != nil {
		return nil, err
	}

	io1 := r.Counters()
	out := &Result{
		Netlist:  sres.Netlist,
		Counters: sres.Counters,
		Tile: &TileIO{
			BytesRead:    io1.BytesRead - io0.BytesRead,
			TilesDecoded: io1.TilesDecoded - io0.TilesDecoded,
			TilesTotal:   r.NonEmptyTiles(),
			FileBytes:    r.Size(),
		},
	}
	out.Diagnostics.SetLimits(opt.Diag)
	out.Diagnostics.AddAll(sres.Diagnostics)
	out.Diagnostics.Sort()
	out.Phases.Total = time.Since(t0)
	out.Phases.setPiped(sres.Timing, busy, wait)
	return out, nil
}
