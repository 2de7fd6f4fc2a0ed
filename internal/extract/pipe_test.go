package extract

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/cif"
	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/guard"
	"ace/internal/scan"
	"ace/internal/wirelist"
)

// pipeDesign has more boxes than the pipe's in-flight window, so its
// producer fills every chunk and parks before the stream ends.
func pipeDesign() *cif.File { return gen.Statistical(4*pipeDepth*pipeChunk, 11).File }

// TestFaultPipeProducer: a front-end fault on the producer goroutine,
// before the first chunk and mid-stream, surfaces as the typed error
// attributed to frontend/stream — not to the sweep it starves — with
// no result. Skip 1 steps past NewItems' own hit at the stage.
func TestFaultPipeProducer(t *testing.T) {
	f := pipeDesign()
	for _, skip := range []int64{1, 3} {
		for _, kind := range []guard.FaultKind{guard.FaultError, guard.FaultPanic} {
			t.Run(fmt.Sprintf("skip=%d/%s", skip, kindName(kind)), func(t *testing.T) {
				fp := &guard.Failpoint{Stage: guard.StageFrontend, Kind: kind, Skip: skip}
				restore := guard.SetInjector(fp)
				defer restore()
				base := runtime.NumGoroutine()

				res, err := File(f, Options{})
				if res != nil {
					t.Fatalf("got a result alongside the failure")
				}
				checkFaultError(t, err, guard.StageFrontend, kind)
				if fp.Fired() != 1 {
					t.Fatalf("failpoint fired %d times, want once", fp.Fired())
				}
				restore()
				if n, ok := guard.WaitGoroutines(base, 5*time.Second); !ok {
					t.Fatalf("goroutines leaked: %d running, base was %d", n, base)
				}
			})
		}
	}
}

// TestFaultPipeNoLeaks runs 50 failing or cancelled extractions in a
// row, on the package entry point and on one Engine, and then requires
// the goroutine count back at its exact base: waitNoLeaks's slack of
// two would hide one leaked producer. The Engine's pooled pipe must
// then still produce the cold path's bytes.
func TestFaultPipeNoLeaks(t *testing.T) {
	f := pipeDesign()
	want := formatWirelist(t, "pipe", f, Options{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// A fault is injected at stage (when set) with a fresh failpoint
	// per run, so every run's hit count starts at zero.
	failures := []struct {
		name  string
		stage string
		kind  guard.FaultKind
		skip  int64
		ctx   context.Context
		opt   Options
	}{
		{"producer-error", guard.StageFrontend, guard.FaultError, 2, nil, Options{}},
		{"producer-panic", guard.StageFrontend, guard.FaultPanic, 2, nil, Options{}},
		{"sweep-error", guard.StageSweep, guard.FaultError, 3, nil, Options{}},
		{"cancelled", "", 0, 0, cancelled, Options{}},
		{"box-budget", "", 0, 0, nil, Options{Limits: guard.Limits{MaxBoxes: pipeChunk}}},
	}
	eng := NewEngine()
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		fc := failures[i%len(failures)]
		if fc.stage != "" {
			guard.SetInjector(&guard.Failpoint{Stage: fc.stage, Kind: fc.kind, Skip: fc.skip})
		}
		var err error
		if i%2 == 0 {
			_, err = FileContext(fc.ctx, f, fc.opt)
		} else {
			_, err = eng.FileContext(fc.ctx, f, fc.opt)
		}
		guard.SetInjector(nil)
		if err == nil {
			t.Fatalf("run %d (%s): extraction succeeded, want a failure", i, fc.name)
		}
	}
	if n, ok := guard.WaitGoroutines(base, 5*time.Second); !ok {
		t.Fatalf("goroutines leaked after 50 failed runs: %d running, base was %d", n, base)
	}
	res, err := eng.File(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := wirelist.Format(res.Netlist, wirelist.Options{}); got != want {
		t.Fatalf("pooled pipe after failures: wirelist differs at byte %d", diffPos(want, got))
	}
}

// errProducer is the producer's failure in TestFaultPipeSweepFirst.
var errProducer = errors.New("producer fault")

// sweepFirstProbe is an Injector that fails both goroutines of the
// pipe: it holds the sweep at its entry until the producer has failed
// at its next chunk, then panics the sweep there, before the sweep has
// taken a single chunk.
type sweepFirstProbe struct {
	feHits         atomic.Int64
	sweepHits      atomic.Int64
	armed          chan struct{}
	producerFailed chan struct{}
	timedOut       atomic.Bool
}

func (sp *sweepFirstProbe) Fire(stage string) error {
	switch stage {
	case guard.StageFrontend:
		if sp.feHits.Add(1) == 1 {
			return nil // NewItems
		}
		<-sp.armed
		close(sp.producerFailed)
		return errProducer
	case guard.StageSweep:
		if sp.sweepHits.Add(1) == 1 {
			close(sp.armed)
			select {
			case <-sp.producerFailed:
			case <-time.After(10 * time.Second):
				sp.timedOut.Store(true)
			}
			panic(guard.ErrInjected)
		}
	}
	return nil
}

// TestFaultPipeSweepFirst: when the sweep fails before it reaches the
// end of the stream, its error is the one returned even though the
// producer has failed too; the producer's failure cannot have caused
// it. (A producer failure the sweep ran into is TestFaultPipeProducer.)
func TestFaultPipeSweepFirst(t *testing.T) {
	f := pipeDesign()
	base := runtime.NumGoroutine()
	sp := &sweepFirstProbe{armed: make(chan struct{}), producerFailed: make(chan struct{})}
	restore := guard.SetInjector(sp)
	defer restore()

	res, err := File(f, Options{})
	restore()
	if sp.timedOut.Load() {
		t.Fatalf("producer never reached its next chunk (%d front-end hits)", sp.feHits.Load())
	}
	if res != nil {
		t.Fatalf("got a result alongside the failure")
	}
	if errors.Is(err, errProducer) {
		t.Fatalf("got the producer's %v, want the sweep's own panic", err)
	}
	checkFaultError(t, err, guard.StageSweep, guard.FaultPanic)
	if n, ok := guard.WaitGoroutines(base, 5*time.Second); !ok {
		t.Fatalf("goroutines leaked: %d running, base was %d", n, base)
	}
}

// parkProbe is an Injector that holds the sweep at its entry until the
// producer has filled every chunk of the pipe and reached the free-list
// receive it then parks on, and cancels the extraction there.
type parkProbe struct {
	feHits   atomic.Int64
	parked   chan struct{}
	cancel   context.CancelFunc
	once     sync.Once
	timedOut atomic.Bool
}

func (pp *parkProbe) Fire(stage string) error {
	switch stage {
	case guard.StageFrontend:
		// One hit in NewItems, one per chunk filled, and one more
		// before the producer waits for a chunk the sweep still holds.
		if pp.feHits.Add(1) == pipeDepth+2 {
			close(pp.parked)
		}
	case guard.StageSweep:
		pp.once.Do(func() {
			select {
			case <-pp.parked:
			case <-time.After(10 * time.Second):
				pp.timedOut.Store(true)
			}
			pp.cancel()
		})
	}
	return nil
}

// TestCancelPipeParked cancels while the producer is parked on a full
// pipe: the sweep sees the cancellation at its next stop, and the
// producer must be woken, stopped and joined before FileContext
// returns.
func TestCancelPipeParked(t *testing.T) {
	f := pipeDesign()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pp := &parkProbe{parked: make(chan struct{}), cancel: cancel}
	restore := guard.SetInjector(pp)
	defer restore()

	_, err := FileContext(ctx, f, Options{})
	restore()
	if pp.timedOut.Load() {
		t.Fatalf("producer never reached the full pipe (%d front-end hits)", pp.feHits.Load())
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	var se *guard.StageError
	if !errors.As(err, &se) || se.Stage != guard.StageSweep {
		t.Fatalf("got %v, want the cancellation attributed to %s", err, guard.StageSweep)
	}
	if n, ok := guard.WaitGoroutines(base, 5*time.Second); !ok {
		t.Fatalf("goroutines leaked: %d running, base was %d", n, base)
	}
}

// TestFaultPipeBoxBudget trips MaxBoxes at the sweep while the
// producer runs ahead of it: the budget error stays at scan/sweep,
// the producer is joined, and a pooled pipe serves the next run.
func TestFaultPipeBoxBudget(t *testing.T) {
	f := pipeDesign()
	want := formatWirelist(t, "pipe", f, Options{})
	eng := NewEngine()
	fp := &guard.Failpoint{Stage: guard.StageFrontend, Skip: 1 << 40}
	restore := guard.SetInjector(fp)
	defer restore()
	base := runtime.NumGoroutine()

	_, err := eng.File(f, Options{Limits: guard.Limits{MaxBoxes: pipeChunk}})
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Stage != guard.StageSweep || le.What != "boxes" {
		t.Fatalf("got %v (%T), want a boxes *guard.LimitError at %s", err, err, guard.StageSweep)
	}
	// The sweep counted more boxes than one chunk holds, so the
	// producer had sent at least a second chunk: NewItems plus two.
	if fp.Hits() < 3 {
		t.Fatalf("front end hit %d times, want the producer at least two chunks in", fp.Hits())
	}
	restore()
	if n, ok := guard.WaitGoroutines(base, 5*time.Second); !ok {
		t.Fatalf("goroutines leaked: %d running, base was %d", n, base)
	}
	res, err := eng.File(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := wirelist.Format(res.Netlist, wirelist.Options{}); got != want {
		t.Fatalf("pooled pipe after a budget trip: wirelist differs at byte %d", diffPos(want, got))
	}
}

// pipeBombPeak runs the bomb f through File under lim, and then
// through File's serial path on a stream it can read afterwards. Both
// must fail with a memory LimitError at scan/sweep; it returns the
// stream's heap peak in entries.
func pipeBombPeak(t *testing.T, f *cif.File, lim guard.Limits) int {
	t.Helper()
	checkMemLimit := func(err error) {
		t.Helper()
		var le *guard.LimitError
		if !errors.As(err, &le) || le.What != "memory bytes" || le.Stage != guard.StageSweep {
			t.Fatalf("got %v (%T), want a memory-bytes *guard.LimitError at %s", err, err, guard.StageSweep)
		}
	}
	_, err := File(f, Options{Limits: lim})
	checkMemLimit(err)

	stream, err := frontend.New(f, frontend.Options{Limits: lim})
	if err != nil {
		t.Fatal(err)
	}
	labels := stream.Labels()
	_, err = newPipe().sweep(nil, stream, scan.Options{Labels: labels, Limits: lim})
	checkMemLimit(err)
	return stream.Stats().PeakHeap
}

// entryMin is the fewest pending bytes one heap entry accounts for: a
// 16-byte key and a 40-byte box (see TestHierarchyBombPendingHeap). A
// heap within the budget holds at most MaxMemBytes/entryMin entries.
const entryMin = 56

// TestHierarchyBombPipe is TestHierarchyBombPendingHeap through the
// pipelined serial path: under the same limits the bomb fails with a
// memory LimitError at scan/sweep, and the heap peaks at most one Next
// past the budget — levels-1 expansions of fanout calls — however far
// ahead of the sweep the producer runs, because the producer checks
// the budget after every box.
func TestHierarchyBombPipe(t *testing.T) {
	const levels, fanout = 10, 100
	f, err := cif.ParseString(bombCIF(levels, fanout))
	if err != nil {
		t.Fatal(err)
	}
	lim := guard.Limits{MaxBoxes: 1 << 20, MaxMemBytes: 64 << 20}
	peak := pipeBombPeak(t, f, lim)
	limit := int(lim.MaxMemBytes/entryMin) + (levels-1)*fanout
	t.Logf("heap peaked at %d entries (bound %d)", peak, limit)
	if peak > limit {
		t.Fatalf("heap peaked at %d entries, want at most %d (the budget and one Next's expansions)", peak, limit)
	}
}

// wideBombCIF builds a bomb in which every box delivered costs one
// wide expansion: the top cell places cells instances of a cell that
// holds one box and, below every instance's box, fanout calls of a
// one-box leaf. The instances step down, so the stream delivers each
// instance's box right after expanding it, and the leaf calls pile up
// in the heap, fanout per box, until every instance is expanded.
func wideBombCIF(cells, fanout int) string {
	var b strings.Builder
	b.WriteString("DS 1 1 1;\nL NM;\nB 10 10 0 0;\nDF;\n")
	b.WriteString("DS 2 1 1;\nL NM;\nB 10 10 0 0;\n")
	below := 20*cells + 100
	for j := 0; j < fanout; j++ {
		fmt.Fprintf(&b, "C 1 T %d %d;\n", 20*j, -below)
	}
	b.WriteString("DF;\n")
	for i := 0; i < cells; i++ {
		fmt.Fprintf(&b, "C 2 T 0 %d;\n", -20*i)
	}
	b.WriteString("E\n")
	return b.String()
}

// TestHierarchyBombWide is the pipe's worst case for the memory
// budget: each delivered box expands a fanout-wide cell, so a producer
// that filled its in-flight window of 2,560 boxes before the sweep
// looked would push 2.5M entries past a budget worth 75k. The producer
// stops at the first box past the budget, and the sweep trips there:
// the heap peaks within one expansion of the budget.
func TestHierarchyBombWide(t *testing.T) {
	const cells, fanout = 3000, 1000
	f, err := cif.ParseString(wideBombCIF(cells, fanout))
	if err != nil {
		t.Fatal(err)
	}
	lim := guard.Limits{MaxMemBytes: 4 << 20}
	peak := pipeBombPeak(t, f, lim)
	limit := int(lim.MaxMemBytes/entryMin) + fanout + 1
	t.Logf("heap peaked at %d entries (bound %d)", peak, limit)
	if peak > limit {
		t.Fatalf("heap peaked at %d entries, want at most %d (the budget and one expansion)", peak, limit)
	}
}
