package extract

import (
	"context"
	"io"
	"sync"
	"time"

	"ace/internal/cif"
	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/scan"
	"ace/internal/tile"
)

// Engine is a long-lived extractor that owns every reusable piece of
// pipeline state: CIF parse arenas, front-end streams and the pipes
// that carry their boxes to the sweep, sweep scratch (sweepers,
// builders, interval lists, sort scratch) and output buffers. The
// package-level entry points build
// this state per call and drop it for the GC; an Engine keeps it
// across calls, so steady-state repeated extraction of a same-shaped
// workload approaches zero allocations per run — the regime a
// high-traffic service loop lives in.
//
// An Engine is safe for concurrent use: all pooled state sits behind
// per-Engine mutex-guarded free lists (never a process-global
// sync.Pool), so concurrent extractions draw disjoint scratch and two
// Engines never share memory. Output is byte-identical to the
// package-level entry points at every Workers setting. A nil *Engine
// is valid and simply never pools.
type Engine struct {
	fe *frontend.Arena
	sp *scan.Pool
	tl *tile.Arena

	mu        sync.Mutex
	cifArenas []*cif.Arena
	outBufs   [][]byte
	pipes     []*pipe
}

// NewEngine returns an empty Engine; pools fill as extractions run.
func NewEngine() *Engine {
	return &Engine{fe: frontend.NewArena(), sp: scan.NewPool(), tl: tile.NewArena()}
}

func (e *Engine) feArena() *frontend.Arena {
	if e == nil {
		return nil
	}
	return e.fe
}

func (e *Engine) scanPool() *scan.Pool {
	if e == nil {
		return nil
	}
	return e.sp
}

// getCIFArena returns a pooled parse arena (nil on a nil Engine, which
// cif treats as plain allocation).
func (e *Engine) getCIFArena() *cif.Arena {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.cifArenas); n > 0 {
		a := e.cifArenas[n-1]
		e.cifArenas[n-1] = nil
		e.cifArenas = e.cifArenas[:n-1]
		return a
	}
	return cif.NewArena()
}

// putCIFArena returns a parse arena once the File it backs is dead —
// the extraction Result copies everything it keeps, so this is safe
// immediately after the extraction returns.
func (e *Engine) putCIFArena(a *cif.Arena) {
	if e == nil || a == nil {
		return
	}
	e.mu.Lock()
	e.cifArenas = append(e.cifArenas, a)
	e.mu.Unlock()
}

// getPipe returns a pooled front-end pipe, or a fresh one.
func (e *Engine) getPipe() *pipe {
	if e == nil {
		return newPipe()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.pipes); n > 0 {
		p := e.pipes[n-1]
		e.pipes[n-1] = nil
		e.pipes = e.pipes[:n-1]
		return p
	}
	return newPipe()
}

// putPipe returns a pipe whose producer has been joined.
func (e *Engine) putPipe(p *pipe) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.pipes = append(e.pipes, p)
	e.mu.Unlock()
}

// GetOutBuf returns an empty pooled byte buffer for rendering output
// (wirelist.AppendTo); hand it back with PutOutBuf when the rendered
// bytes are consumed.
func (e *Engine) GetOutBuf() []byte {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.outBufs); n > 0 {
		b := e.outBufs[n-1]
		e.outBufs[n-1] = nil
		e.outBufs = e.outBufs[:n-1]
		return b[:0]
	}
	return nil
}

// PutOutBuf returns an output buffer's capacity to the Engine.
func (e *Engine) PutOutBuf(b []byte) {
	if e == nil || cap(b) == 0 {
		return
	}
	e.mu.Lock()
	e.outBufs = append(e.outBufs, b[:0])
	e.mu.Unlock()
}

// Reader extracts a CIF design from r, reusing the Engine's arenas.
func (e *Engine) Reader(r io.Reader, opt Options) (*Result, error) {
	return e.ReaderContext(nil, r, opt)
}

// ReaderContext is Reader with cooperative cancellation.
func (e *Engine) ReaderContext(ctx context.Context, r io.Reader, opt Options) (*Result, error) {
	t0 := time.Now()
	a := e.getCIFArena()
	f, err := cif.ParseReaderOpts(r, cif.ParseOptions{
		Limits: opt.Limits, Lenient: opt.Lenient, Diag: opt.Diag, Arena: a,
	})
	if err != nil {
		e.putCIFArena(a)
		return nil, err
	}
	parse := time.Since(t0)
	res, err := e.FileContext(ctx, f, opt)
	// The Result copies everything it keeps out of the parsed File, so
	// the arena backing f can host the next parse.
	e.putCIFArena(a)
	if err != nil {
		return nil, err
	}
	res.Phases.Parse = parse
	res.Phases.Total += parse
	return res, nil
}

// String extracts a CIF design from source text, reusing the Engine's
// arenas.
func (e *Engine) String(src string, opt Options) (*Result, error) {
	return e.StringContext(nil, src, opt)
}

// StringContext is String with cooperative cancellation.
func (e *Engine) StringContext(ctx context.Context, src string, opt Options) (*Result, error) {
	t0 := time.Now()
	a := e.getCIFArena()
	f, err := cif.ParseBytesOpts([]byte(src), cif.ParseOptions{
		Limits: opt.Limits, Lenient: opt.Lenient, Diag: opt.Diag, Arena: a,
	})
	if err != nil {
		e.putCIFArena(a)
		return nil, err
	}
	parse := time.Since(t0)
	res, err := e.FileContext(ctx, f, opt)
	e.putCIFArena(a)
	if err != nil {
		return nil, err
	}
	res.Phases.Parse = parse
	res.Phases.Total += parse
	return res, nil
}

// File extracts an already-parsed design, reusing the Engine's pools
// for everything downstream of the parse.
func (e *Engine) File(f *cif.File, opt Options) (*Result, error) {
	return e.FileContext(nil, f, opt)
}

// FileContext is File with cooperative cancellation; see the
// package-level FileContext for the isolation contract.
func (e *Engine) FileContext(ctx context.Context, f *cif.File, opt Options) (*Result, error) {
	return fileContext(e, ctx, f, opt)
}

// Tiles extracts from a packed tile file, lifting the per-iterator
// decode arenas to Engine lifetime (the Reader is attached to the
// Engine's tile scratch pool; give each Reader one Engine).
func (e *Engine) Tiles(r *tile.Reader, opt Options) (*Result, error) {
	return e.TilesContext(nil, r, opt)
}

// TilesContext is Tiles with cooperative cancellation.
func (e *Engine) TilesContext(ctx context.Context, r *tile.Reader, opt Options) (*Result, error) {
	if e != nil {
		r.SetArena(e.tl)
	}
	return tilesContext(e, ctx, r, opt)
}

// TileWindow extracts only the geometry overlapping rect from a packed
// tile file; see the package-level TileWindow.
func (e *Engine) TileWindow(ctx context.Context, r *tile.Reader, rect geom.Rect, opt Options) (*Result, error) {
	if e != nil {
		r.SetArena(e.tl)
	}
	return tileWindow(e, ctx, r, rect, opt)
}
