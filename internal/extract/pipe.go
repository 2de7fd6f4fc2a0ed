package extract

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/frontend"
	"ace/internal/guard"
	"ace/internal/scan"
	"ace/internal/tile"
)

// The pipe moves its feed's stream in units: on CIF input a chunk of
// pipeChunk boxes, with at most pipeDepth chunks in flight, so the
// producer runs ahead of the sweep by at most pipeDepth*pipeChunk
// boxes. A chunk is 20 KiB of boxes, so the whole window stays in
// cache, and one channel operation per chunk is noise next to the 512
// heap pops that fill it. On tile input a unit is one decoded tile
// row, rowDepth of them in flight: the sweep merges one row while the
// producer reads the next.
const (
	pipeChunk = 512
	pipeDepth = 4
	rowDepth  = 2
)

// feed is what a pipe's producer reads from, one unit at a time: the
// lazy front end on CIF input (streamFeed), a tile iterator on tile
// input (tileFeed). It is called once per unit, so the per-box loop
// stays inside the concrete fill.
type feed interface {
	// fill fills unit k with the next boxes in descending-top order,
	// and reports how many it holds and whether the stream may go on
	// after them. An error ends the stream; a fill under a MaxMemBytes
	// budget checks the feed's pending bytes itself.
	fill(k int, limits guard.Limits) (n int, more bool, err error)
	// pendingBytes is what the feed holds in memory for geometry it
	// has not filled yet.
	pendingBytes() int64
}

// streamFeed is the CIF front end as a feed, filling the pipe's chunks.
type streamFeed struct {
	s      *frontend.Stream
	chunks *[pipeDepth][]frontend.Box
}

// fill runs the stream's Next loop into chunk k. Under MaxMemBytes it
// checks the pending heap after every box and stops at the first
// excess with a LimitError at frontend/stream, so the heap ends at
// most one Next past the budget however far ahead of the sweep the
// producer runs.
func (f *streamFeed) fill(k int, limits guard.Limits) (int, bool, error) {
	s, buf := f.s, f.chunks[k][:0]
	var err error
	for len(buf) < pipeChunk {
		b, ok := s.Next()
		if !ok {
			break
		}
		buf = append(buf, b)
		if limits.MaxMemBytes > 0 {
			if err = limits.CheckMem(guard.StageFrontend, s.PendingBytes()); err != nil {
				break
			}
		}
	}
	f.chunks[k] = buf
	return len(buf), err == nil && len(buf) == pipeChunk, err
}

func (f *streamFeed) pendingBytes() int64 { return f.s.PendingBytes() }

// tileFeed is a whole-chip or window tile iterator as a feed: the
// producer fetches, checksums, decodes and filters tile rows into the
// iterator's two row buffers, and the sweep merges them (rowSource).
type tileFeed struct{ it *tile.Iter }

// fill reads the next tile row into row buffer k; a corrupt tile ends
// the iterator, and its error ends the stream.
func (f tileFeed) fill(k int, _ guard.Limits) (int, bool, error) {
	if !f.it.FillRow(k) {
		return 0, false, f.it.Err()
	}
	return f.it.Row(k).Len(), true, nil
}

// pendingBytes is zero: the tile rows are scratch sized from the
// file's index, not by the design's hierarchy, and MaxMemBytes does
// not count them.
func (f tileFeed) pendingBytes() int64 { return 0 }

// pipe runs a feed on a producer goroutine and hands its stream, in
// order, to the serial sweep on the caller's goroutine: the paper's
// front end and back end meet only at this descending-top box stream
// (ACE §3 step 2.a), so the two halves can run on two cores with every
// output byte unchanged. The feed is the lazy front end on CIF input
// and a tile iterator on tile input.
//
// The units circulate by index between two channels: the producer
// takes a free index, fills that unit and sends the index on full; the
// sweep reads the unit and hands the index back to free. On CIF input
// the pipe itself is the sweep's box Source over its chunks; on tile
// input rowSource merges the filled rows, and a pipe that has carried
// only tiles holds no chunks. A pipe is pooled by the Engine and
// serves one sweep at a time.
type pipe struct {
	free chan int // unit indices the producer may fill
	full chan int // filled unit indices in stream order; -1 ends the stream

	stopped atomic.Bool // set by the sweep side to make the producer quit
	wg      sync.WaitGroup

	// pending is the feed's pending bytes plus every box the producer
	// has sent, as of its last unit; the sweep subtracts what it has
	// taken.
	pending atomic.Int64

	// Producer side. err and busy are written before the end marker is
	// sent and read after it is received.
	src    feed
	stage  string // the producer's guard stage
	ctx    context.Context
	limits guard.Limits  // the sweep's; MaxMemBytes also bounds the producer
	err    error         // why the producer stopped early, if it did
	busy   time.Duration // producer time not parked on a full pipe

	// Sweep side.
	held  int           // unit index the sweep holds; -1 when none
	ended bool          // the end marker has been received
	wait  time.Duration // sweep time blocked on an empty pipe

	// CIF input: its feed, the chunks, allocated on the pipe's first
	// CIF sweep, and the sweep's place in them.
	stream streamFeed
	chunks *[pipeDepth][]frontend.Box
	cur    []frontend.Box // chunk being read
	i      int            // next box in cur
	taken  int64          // boxes of earlier chunks the sweep has taken

	rows rowSource // tile input's sweep-side Source
}

func newPipe() *pipe {
	return &pipe{
		free: make(chan int, pipeDepth),
		// pipeDepth unit indices plus the end marker: the producer's
		// send on full never blocks, so it parks only on free.
		full: make(chan int, pipeDepth+1),
	}
}

// sweepStream runs scan.Sweep over the CIF front end's boxes, with the
// stream's Next loop on the producer goroutine at frontend/stream.
func (p *pipe) sweepStream(ctx context.Context, s *frontend.Stream, opt scan.Options) (*scan.Result, error) {
	if p.chunks == nil {
		p.chunks = new([pipeDepth][]frontend.Box)
		for k := range p.chunks {
			p.chunks[k] = make([]frontend.Box, 0, pipeChunk)
		}
	}
	p.cur, p.i, p.taken = nil, 0, 0
	p.stream = streamFeed{s, p.chunks}
	return p.sweep(ctx, guard.StageFrontend, &p.stream, pipeDepth, p, opt)
}

// sweepTiles runs scan.Sweep over a tile iterator's boxes, with its
// rows read on the producer goroutine at tile/read and merged on the
// sweep's. The caller releases the iterator once sweepTiles returns.
func (p *pipe) sweepTiles(ctx context.Context, it *tile.Iter, opt scan.Options) (*scan.Result, error) {
	p.rows = rowSource{p: p, it: it}
	p.rows.row = &p.rows.idle
	return p.sweep(ctx, guard.StageTileRead, tileFeed{it}, rowDepth, &p.rows, opt)
}

// sweep runs scan.Sweep over out, the sweep side of src filled on a
// producer goroutine that runs at stage with depth units in flight.
// The producer is stopped and joined before sweep returns, on every
// path; only then may the caller touch src again. A producer failure
// ends the stream early, so it is the root cause when the sweep
// succeeded on the truncated stream or failed after reaching its end;
// an error the sweep met before the end is its own and is returned.
func (p *pipe) sweep(ctx context.Context, stage string, src feed, depth int, out scan.Source, opt scan.Options) (res *scan.Result, err error) {
	p.start(ctx, stage, src, depth, opt.Limits)
	defer func() {
		ended := p.ended
		if perr := p.stop(); perr != nil && (err == nil || ended) {
			res, err = nil, perr
		}
	}()
	return scan.Sweep(out, opt)
}

func (p *pipe) start(ctx context.Context, stage string, src feed, depth int, limits guard.Limits) {
	p.src, p.stage, p.ctx, p.limits = src, stage, ctx, limits
	p.err, p.busy, p.wait = nil, 0, 0
	p.held, p.ended = -1, false
	p.pending.Store(src.pendingBytes())
	p.stopped.Store(false)
	// A producer that quit early may have kept an index; start from a
	// full set.
	for len(p.free) > 0 {
		<-p.free
	}
	for k := 0; k < depth; k++ {
		p.free <- k
	}
	p.wg.Add(1)
	go p.produce()
}

// produce is the producer goroutine: it fills units until the feed
// ends, the sweep stops it or the feed fails (a front-end fault, a
// pending heap past MaxMemBytes, a corrupt tile). Cancellation and
// fault injection are checked once per unit, after the stop flag, so
// a producer the sweep has already stopped quits instead of reporting
// a failure of its own.
//
// A fill that trips MaxMemBytes still sends its chunk and publishes
// the feed's pending bytes before the producer quits; the sweep, which
// adds them to its own footprint, trips at scan/sweep on the next box
// it takes, before it can reach the end marker, so its error is the
// one returned.
func (p *pipe) produce() {
	defer p.wg.Done()
	t0 := time.Now()
	var parked time.Duration
	p.err = guard.Run(p.stage, func() error {
		var sent int64
		for {
			if p.stopped.Load() {
				return nil
			}
			if err := guard.Ctx(p.ctx, p.stage); err != nil {
				return err
			}
			if err := guard.Inject(p.stage); err != nil {
				return err
			}
			t := time.Now()
			k := <-p.free
			parked += time.Since(t)
			if p.stopped.Load() {
				return nil
			}
			n, more, err := p.src.fill(k, p.limits)
			sent += int64(n)
			p.pending.Store(p.src.pendingBytes() + sent*guard.BoxBytes)
			if n > 0 {
				p.full <- k
			}
			if err != nil || !more {
				return err
			}
		}
	})
	p.busy = time.Since(t0) - parked
	p.full <- -1
}

// stop makes the producer quit, joins it and reports why it stopped
// early, if it did.
func (p *pipe) stop() error {
	p.stopped.Store(true)
	// Hand back every unit so a producer parked on free wakes up, sees
	// the stop and sends the end marker.
	if p.held >= 0 {
		p.free <- p.held
		p.held = -1
	}
	for !p.ended {
		if k := <-p.full; k < 0 {
			p.ended = true
		} else {
			p.free <- k
		}
	}
	p.wg.Wait()
	p.src, p.ctx, p.limits = nil, nil, guard.Limits{}
	p.cur, p.stream, p.rows = nil, streamFeed{}, rowSource{}
	return p.err
}

// take hands the unit the sweep holds back to the producer and makes
// the next filled unit the held one; false at the end of the stream. A
// producer failure ends the stream early; the sweep's caller reports
// it (see sweep).
func (p *pipe) take() (int, bool) {
	if p.ended {
		return 0, false
	}
	if p.held >= 0 {
		p.free <- p.held
		p.held = -1
	}
	t := time.Now()
	k := <-p.full
	p.wait += time.Since(t)
	if k < 0 {
		p.ended = true
		return 0, false
	}
	p.held = k
	return k, true
}

// next makes the next chunk current; false at the end of the stream.
func (p *pipe) next() bool {
	p.taken += int64(p.i)
	p.cur, p.i = nil, 0
	k, ok := p.take()
	if ok {
		p.cur = p.chunks[k]
	}
	return ok
}

// NextTop implements scan.Source.
func (p *pipe) NextTop() (int64, bool) {
	if p.i == len(p.cur) && !p.next() {
		return 0, false
	}
	return p.cur[p.i].Rect.YMax, true
}

// Next implements scan.Source.
func (p *pipe) Next() (frontend.Box, bool) {
	if p.i == len(p.cur) && !p.next() {
		return frontend.Box{}, false
	}
	b := p.cur[p.i]
	p.i++
	return b, true
}

// PendingBytes is what the pipeline holds for geometry the sweep has
// not taken: the feed's pending bytes as the producer last published
// them, plus the boxes in flight. The sweep adds it to its active-list
// footprint under a MaxMemBytes budget.
func (p *pipe) PendingBytes() int64 {
	return p.pending.Load() - (p.taken+int64(p.i))*guard.BoxBytes
}

// rowSource is the sweep side of a tile pipe: it merges the row the
// sweep holds straight into scan.Sweep and takes the next row from the
// pipe when that one runs dry. It has no PendingBytes: under
// MaxMemBytes a tile sweep counts its active lists only.
type rowSource struct {
	p    *pipe
	it   *tile.Iter
	row  *tile.Row // the held row, or idle before the first
	idle tile.Row  // an empty row
}

// NextTop implements scan.Source.
func (s *rowSource) NextTop() (int64, bool) {
	if top, ok := s.row.NextTop(); ok {
		return top, true
	}
	return s.nextRow()
}

// nextRow takes filled rows from the pipe until one has a box; false
// at the end of the stream.
func (s *rowSource) nextRow() (int64, bool) {
	for {
		k, ok := s.p.take()
		if !ok {
			s.row = &s.idle
			return 0, false
		}
		s.row = s.it.Row(k)
		if top, ok := s.row.NextTop(); ok {
			return top, true
		}
	}
}

// Next implements scan.Source.
func (s *rowSource) Next() (frontend.Box, bool) {
	if _, ok := s.NextTop(); !ok {
		return frontend.Box{}, false
	}
	return s.row.Next()
}
