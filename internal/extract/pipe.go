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

// The pipe moves boxes in chunks of pipeChunk, with at most pipeDepth
// chunks in flight: the producer runs ahead of the sweep by at most
// pipeDepth*pipeChunk boxes. A chunk is 20 KiB of boxes, so the whole
// window stays in cache, and one channel operation per chunk is
// noise next to the 512 heap pops that fill it.
const (
	pipeChunk = 512
	pipeDepth = 4
)

// feed is what a pipe's producer reads boxes from: the lazy front end
// on CIF input (streamFeed), a tile iterator on tile input (tileFeed).
// It is called once per chunk, so the per-box loop stays inside the
// concrete fill.
type feed interface {
	// fill appends the next boxes in descending-top order to buf, up
	// to pipeChunk of them. A short chunk ends the stream, and an error
	// ends it early; a fill under a MaxMemBytes budget checks the
	// feed's pending bytes itself.
	fill(buf []frontend.Box, limits guard.Limits) ([]frontend.Box, error)
	// pendingBytes is what the feed holds in memory for geometry it
	// has not filled yet.
	pendingBytes() int64
}

// streamFeed is the CIF front end as a feed.
type streamFeed struct{ s *frontend.Stream }

// fill runs the stream's Next loop. Under MaxMemBytes it checks the
// pending heap after every box and stops at the first excess with a
// LimitError at frontend/stream, so the heap ends at most one Next
// past the budget however far ahead of the sweep the producer runs.
func (f streamFeed) fill(buf []frontend.Box, limits guard.Limits) ([]frontend.Box, error) {
	s := f.s
	for len(buf) < pipeChunk {
		b, ok := s.Next()
		if !ok {
			break
		}
		buf = append(buf, b)
		if limits.MaxMemBytes > 0 {
			if err := limits.CheckMem(guard.StageFrontend, s.PendingBytes()); err != nil {
				return buf, err
			}
		}
	}
	return buf, nil
}

func (f streamFeed) pendingBytes() int64 { return f.s.PendingBytes() }

// tileFeed is a tile band or window iterator as a feed: the producer
// fetches, checksums, decodes and merges the tiles.
type tileFeed struct{ it *tile.Iter }

// fill drains the iterator into buf; a corrupt tile ends the
// iterator, and its error ends the stream.
func (f tileFeed) fill(buf []frontend.Box, _ guard.Limits) ([]frontend.Box, error) {
	it := f.it
	for len(buf) < pipeChunk {
		b, ok := it.Next()
		if !ok {
			return buf, it.Err()
		}
		buf = append(buf, b)
	}
	return buf, nil
}

// pendingBytes is zero: a tile iterator holds one decoded tile row,
// scratch bounded by the file's layout rather than by the design's
// hierarchy, and MaxMemBytes does not count it.
func (f tileFeed) pendingBytes() int64 { return 0 }

// pipe runs a feed on a producer goroutine and hands its boxes, in
// order, to the serial sweep on the caller's goroutine: the paper's
// front end and back end meet only at this descending-top box stream
// (ACE §3 step 2.a), so the two halves can run on two cores with every
// output byte unchanged. The feed is the lazy front end on CIF input
// and a tile iterator on tile input.
//
// The chunks circulate by index between two channels: the producer
// takes a free index, fills that chunk and sends the index on full;
// the sweep reads the chunk and hands the index back to free. A pipe
// is pooled by the Engine and serves one sweep at a time.
type pipe struct {
	bufs [pipeDepth][]frontend.Box
	free chan int // chunk indices the producer may fill
	full chan int // filled chunk indices in stream order; -1 ends the stream

	stopped atomic.Bool // set by the sweep side to make the producer quit
	wg      sync.WaitGroup

	// pending is the feed's pending bytes plus every box the producer
	// has sent, as of its last chunk; the sweep subtracts what it has
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
	cur    []frontend.Box // chunk being read
	curIdx int            // index of cur in bufs; -1 when none is held
	i      int            // next box in cur
	taken  int64          // boxes of earlier chunks the sweep has taken
	ended  bool           // the end marker has been received
	wait   time.Duration  // sweep time blocked on an empty pipe
}

func newPipe() *pipe {
	p := &pipe{
		free: make(chan int, pipeDepth),
		// pipeDepth chunk indices plus the end marker: the producer's
		// send on full never blocks, so it parks only on free.
		full: make(chan int, pipeDepth+1),
	}
	for k := range p.bufs {
		p.bufs[k] = make([]frontend.Box, 0, pipeChunk)
	}
	return p
}

// sweep runs scan.Sweep over src's boxes with src filled on a
// producer goroutine that runs at stage. The producer is stopped and
// joined before sweep returns, on every path; only then may the caller
// touch src again. A producer failure ends the stream early, so it is
// the root cause when the sweep succeeded on the truncated stream or
// failed after reaching its end; an error the sweep met before the end
// is its own and is returned.
func (p *pipe) sweep(ctx context.Context, stage string, src feed, opt scan.Options) (res *scan.Result, err error) {
	p.start(ctx, stage, src, opt.Limits)
	defer func() {
		ended := p.ended
		if perr := p.stop(); perr != nil && (err == nil || ended) {
			res, err = nil, perr
		}
	}()
	return scan.Sweep(p, opt)
}

func (p *pipe) start(ctx context.Context, stage string, src feed, limits guard.Limits) {
	p.src, p.stage, p.ctx, p.limits = src, stage, ctx, limits
	p.err, p.busy, p.wait = nil, 0, 0
	p.cur, p.curIdx, p.i, p.taken, p.ended = nil, -1, 0, 0, false
	p.pending.Store(src.pendingBytes())
	p.stopped.Store(false)
	// A producer that quit early may have kept an index; start from a
	// full set.
	for len(p.free) > 0 {
		<-p.free
	}
	for k := range p.bufs {
		p.free <- k
	}
	p.wg.Add(1)
	go p.produce()
}

// produce is the producer goroutine: it fills chunks until the feed
// ends, the sweep stops it or the feed fails (a front-end fault, a
// pending heap past MaxMemBytes, a corrupt tile). Cancellation and
// fault injection are checked once per chunk, after the stop flag, so
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
			buf, err := p.src.fill(p.bufs[k][:0], p.limits)
			p.bufs[k] = buf
			sent += int64(len(buf))
			p.pending.Store(p.src.pendingBytes() + sent*guard.BoxBytes)
			if len(buf) > 0 {
				p.full <- k
			}
			if err != nil || len(buf) < pipeChunk {
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
	// Hand back every chunk so a producer parked on free wakes up,
	// sees the stop and sends the end marker.
	if p.curIdx >= 0 {
		p.free <- p.curIdx
		p.cur, p.curIdx = nil, -1
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
	return p.err
}

// next makes the next chunk current, handing the drained one back to
// the producer; false at the end of the stream. A producer failure
// ends the stream early; the sweep's caller reports it (see sweep).
func (p *pipe) next() bool {
	if p.ended {
		return false
	}
	if p.curIdx >= 0 {
		p.taken += int64(p.i)
		p.free <- p.curIdx
		p.cur, p.curIdx, p.i = nil, -1, 0
	}
	t := time.Now()
	k := <-p.full
	p.wait += time.Since(t)
	if k < 0 {
		p.ended = true
		return false
	}
	p.cur, p.curIdx = p.bufs[k], k
	return true
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
