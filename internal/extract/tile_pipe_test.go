package extract

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/guard"
	"ace/internal/tile"
)

// TestCancelTilePipeParked is TestCancelPipeParked on tile input: the
// producer reads one row ahead of the sweep, and it is cancelled while
// it is parked with both row buffers full, for the whole chip and for
// a window. The sweep sees the cancellation at its next stop, and the
// producer must be woken, stopped and joined before the call returns.
func TestCancelTilePipeParked(t *testing.T) {
	r := packFile(t, faultDesign(), 4, 4)
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context) (*Result, error)
	}{
		{"tiles", func(ctx context.Context) (*Result, error) { return unpooled.Tiles(ctx, r, Options{}) }},
		{"window", func(ctx context.Context) (*Result, error) {
			return unpooled.TileWindow(ctx, r, lowerLeft(r), Options{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// One hit per row filled, and one more before the producer
			// waits for a row buffer the sweep still holds.
			pp := newParkProbe(guard.StageTileRead, rowDepth+1, cancel)
			restore := guard.SetInjector(pp)
			defer restore()

			res, err := tc.run(ctx)
			restore()
			if pp.timedOut.Load() {
				t.Fatalf("producer never filled both rows (%d tile/read hits)", pp.hits.Load())
			}
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, %v; want only context.Canceled", res, err)
			}
			var se *guard.StageError
			if !errors.As(err, &se) || se.Stage != guard.StageSweep {
				t.Fatalf("got %v, want the cancellation attributed to %s", err, guard.StageSweep)
			}
			if n, ok := guard.WaitGoroutines(base, 5*time.Second); !ok {
				t.Fatalf("goroutines leaked: %d running, base was %d", n, base)
			}
		})
	}
}

// gatedReaderAt serves raw, holding the first read at offset off until
// release is closed and closing reached when that read starts.
type gatedReaderAt struct {
	raw      []byte
	off      int64
	once     sync.Once
	reached  chan struct{}
	release  chan struct{}
	timedOut atomic.Bool
}

func (g *gatedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off == g.off {
		g.once.Do(func() {
			close(g.reached)
			select {
			case <-g.release:
			case <-time.After(10 * time.Second):
				g.timedOut.Store(true)
			}
		})
	}
	return bytes.NewReader(g.raw).ReadAt(p, off)
}

// stopProbe is an Injector that holds the sweep at its first scanline
// stop until the gated read has started, then lets the read finish.
type stopProbe struct {
	g         *gatedReaderAt
	sweepHits atomic.Int64
	held      atomic.Bool
	timedOut  atomic.Bool
}

func (sp *stopProbe) Fire(stage string) error {
	// Hit 1 is scan.Sweep's entry, hit 2 its first stop.
	if stage == guard.StageSweep && sp.sweepHits.Add(1) == 2 {
		sp.held.Store(true)
		select {
		case <-sp.g.reached:
		case <-time.After(10 * time.Second):
			sp.timedOut.Store(true)
		}
		close(sp.g.release)
	}
	return nil
}

// TestTiledCorruptReadAhead puts a damaged tile in the second tile row,
// the row the producer reads ahead while the sweep is still merging
// the first: the sweep is held at its first stop, inside row 0, until
// the producer is reading the damaged tile. The producer's failure
// ends the stream after row 0, and the tile's *tile.CorruptError is
// what Tiles returns (guarantee #6), with the producer joined.
func TestTiledCorruptReadAhead(t *testing.T) {
	raw := packRaw(t, faultDesign(), 4, 4)
	g := packFile(t, faultDesign(), 4, 4).Grid()
	var bad packedTile
	for _, pt := range packedTiles(raw, g) {
		if pt.row == 1 {
			bad = pt
			break
		}
	}
	if bad.count == 0 {
		t.Fatal("no tile in row 1")
	}
	raw[bad.payload] ^= 0x01 // a layer byte: the payload checksum fails
	ra := &gatedReaderAt{raw: raw, off: bad.payload, reached: make(chan struct{}), release: make(chan struct{})}
	r, err := tile.NewReader(ra, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	sp := &stopProbe{g: ra}
	restore := guard.SetInjector(sp)
	defer restore()

	res, err := Tiles(r, Options{})
	restore()
	if sp.timedOut.Load() || ra.timedOut.Load() || !sp.held.Load() {
		t.Fatalf("the damaged row was not read while the sweep held row 0 (sweep hits %d)", sp.sweepHits.Load())
	}
	var ce *tile.CorruptError
	if res != nil || !errors.As(err, &ce) {
		t.Fatalf("got %v, %v; want only a *tile.CorruptError", res, err)
	}
	if !strings.HasPrefix(ce.Region, "tile[1,") {
		t.Fatalf("damage reported in %s, want a tile of row 1", ce.Region)
	}
	if n, ok := guard.WaitGoroutines(base, 5*time.Second); !ok {
		t.Fatalf("goroutines leaked: %d running, base was %d", n, base)
	}
}

// TestFaultTilesBoxBudget: a tile file holding more boxes than
// MaxBoxes is refused before a tile is read, with the LimitError at
// tile/read (on tile input the front end never runs), and no goroutine
// is left behind.
func TestFaultTilesBoxBudget(t *testing.T) {
	r := packFile(t, faultDesign(), 4, 4)
	base := runtime.NumGoroutine()
	res, err := Tiles(r, Options{Limits: guard.Limits{MaxBoxes: r.NumBoxes() - 1}})
	var le *guard.LimitError
	if res != nil || !errors.As(err, &le) || le.Stage != guard.StageTileRead || le.What != "boxes" {
		t.Fatalf("got %v, %v; want only a boxes *guard.LimitError at %s", res, err, guard.StageTileRead)
	}
	if c := r.Counters(); c.TilesDecoded != 0 {
		t.Fatalf("%d tiles decoded before the budget refused the file", c.TilesDecoded)
	}
	if n, ok := guard.WaitGoroutines(base, 5*time.Second); !ok {
		t.Fatalf("goroutines leaked: %d running, base was %d", n, base)
	}
	if res, err := Tiles(r, Options{Limits: guard.Limits{MaxBoxes: r.NumBoxes()}}); err != nil || res.Counters.BoxesIn != int(r.NumBoxes()) {
		t.Fatalf("a budget of exactly the file's boxes: %v", err)
	}
}
