package extract

import (
	"context"
	"sync"
	"time"

	"ace/internal/cif"
	"ace/internal/frontend"
	"ace/internal/scan"
	"ace/internal/tile"
)

// Engine is a long-lived extractor that owns every reusable piece of
// pipeline state: CIF parse arenas, front-end streams, tile decode
// and merge scratch, the pipes that carry boxes from either to the
// sweep, sweep scratch (sweepers, builders, interval lists, sort
// scratch) and output buffers. A nil
// *Engine is valid and never pools: it builds this state per call and
// drops it for the GC, which is what the package-level File, Tiles and
// TileWindow do. An Engine keeps it across calls, so steady-state
// repeated extraction of a same-shaped workload approaches zero
// allocations per run — the regime a high-traffic service loop lives
// in.
//
// There is one method per input kind: CIF text, a parsed File, a whole
// tile file (Tiles) and one window of it (TileWindow). Each takes a
// context; a nil ctx never cancels.
//
// An Engine is safe for concurrent use: all pooled state sits behind
// per-Engine mutex-guarded free lists (never a process-global
// sync.Pool), so concurrent extractions draw disjoint scratch and two
// Engines never share memory. Output is byte-identical to a nil
// Engine's.
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

// getPipe returns a pooled pipe, or a fresh one.
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

// CIF parses CIF source text and extracts it, reusing the Engine's
// parse arenas; everything downstream is Engine.File. The parser
// copies what it keeps, so src may be reused once CIF returns.
func (e *Engine) CIF(ctx context.Context, src []byte, opt Options) (*Result, error) {
	t0 := time.Now()
	a := e.getCIFArena()
	// The Result copies everything it keeps out of the parsed File, so
	// the arena backing it can host the next parse.
	defer e.putCIFArena(a)
	f, err := cif.ParseBytesOpts(src, cif.ParseOptions{
		Limits: opt.Limits, Lenient: opt.Lenient, Diag: opt.Diag, Arena: a,
	})
	if err != nil {
		return nil, err
	}
	parse := time.Since(t0)
	res, err := e.File(ctx, f, opt)
	if err != nil {
		return nil, err
	}
	res.Phases.Parse = parse
	res.Phases.Total += parse
	return res, nil
}
