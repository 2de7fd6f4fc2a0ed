package extract

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ace/internal/cif"
	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/scan"
	"ace/internal/tile"
	"ace/internal/wirelist"
)

// faultConfig is a pipeline shape the fault matrix drives, paired with
// the stages an extraction of that shape actually reaches.
type faultConfig struct {
	name   string
	input  string // "file", "tiles" or "window": the Engine method run
	opt    Options
	stages []string
}

// faultConfigs: heap-serial is the CIF pipeline, the lazy heap front
// end piped into the sweep. tiles-serial and tiles-window are the tile
// paths, whose tile reader is piped into the sweep the way the front
// end is.
var faultConfigs = []faultConfig{
	{"heap-serial", "file", Options{},
		[]string{guard.StageFrontend, guard.StageSweep, guard.StageExtract}},
	{"tiles-serial", "tiles", Options{},
		[]string{guard.StageTileRead, guard.StageSweep, guard.StageExtract}},
	{"tiles-window", "window", Options{},
		[]string{guard.StageTileRead, guard.StageSweep, guard.StageExtract}},
}

func faultDesign() *cif.File { return gen.Statistical(1500, 11).File }

// lowerLeft is the lower-left quarter of r's chip: a window that holds
// boxes, so its sweep has work to fail or refuse.
func lowerLeft(r *tile.Reader) geom.Rect {
	bb := r.BBox()
	return geom.Rect{XMin: bb.XMin, YMin: bb.YMin, XMax: (bb.XMin + bb.XMax) / 2, YMax: (bb.YMin + bb.YMax) / 2}
}

// extract runs the config's shape on the fault design: the parsed file
// f on the CIF path, its packed tile file r whole, or r's lower-left
// quarter.
func (c faultConfig) extract(ctx context.Context, f *cif.File, r *tile.Reader) (*Result, error) {
	switch c.input {
	case "tiles":
		return unpooled.Tiles(ctx, r, c.opt)
	case "window":
		return unpooled.TileWindow(ctx, r, lowerLeft(r), c.opt)
	}
	return unpooled.File(ctx, f, c.opt)
}

func kindName(k guard.FaultKind) string {
	switch k {
	case guard.FaultPanic:
		return "panic"
	case guard.FaultDelay:
		return "delay"
	default:
		return "error"
	}
}

// checkFaultError asserts the typed-error contract: an injected error
// surfaces as a *guard.StageError naming the stage and unwrapping to
// guard.ErrInjected; an injected panic surfaces as a *guard.PanicError
// naming the stage and carrying a stack — never a process crash.
func checkFaultError(t *testing.T, err error, stage string, kind guard.FaultKind) {
	t.Helper()
	if err == nil {
		t.Fatalf("stage %s kind %s: extraction succeeded, want a typed error", stage, kindName(kind))
	}
	switch kind {
	case guard.FaultPanic:
		var pe *guard.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("stage %s: got %v (%T), want *guard.PanicError", stage, err, err)
		}
		if pe.Stage != stage {
			t.Fatalf("panic attributed to %q, want %q", pe.Stage, stage)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("panic error carries no stack")
		}
	default:
		if !errors.Is(err, guard.ErrInjected) {
			t.Fatalf("stage %s: got %v, want ErrInjected through the wrapper", stage, err)
		}
		var se *guard.StageError
		if !errors.As(err, &se) {
			t.Fatalf("stage %s: got %v (%T), want *guard.StageError", stage, err, err)
		}
		if se.Stage != stage {
			t.Fatalf("error attributed to %q, want %q", se.Stage, stage)
		}
	}
}

// waitNoLeaks asserts the goroutine count returns to its pre-run base:
// a failed extraction must unwind its worker pools, not strand them.
func waitNoLeaks(t *testing.T, base int) {
	t.Helper()
	if n, ok := guard.WaitGoroutines(base+2, 5*time.Second); !ok {
		t.Fatalf("goroutines leaked: %d still running, base was %d", n, base)
	}
}

// TestFaultMatrix injects an error and a panic into every stage of
// every pipeline shape and asserts the failure contract each time: a
// typed error attributed to the injected stage, no partial result, and
// no leaked worker goroutines.
func TestFaultMatrix(t *testing.T) {
	f := faultDesign()
	r := packFile(t, f, 4, 4)
	for _, cfg := range faultConfigs {
		for _, stage := range cfg.stages {
			for _, kind := range []guard.FaultKind{guard.FaultError, guard.FaultPanic} {
				name := fmt.Sprintf("%s/%s/%s", cfg.name, strings.ReplaceAll(stage, "/", "."), kindName(kind))
				t.Run(name, func(t *testing.T) {
					fp := &guard.Failpoint{Stage: stage, Kind: kind}
					restore := guard.SetInjector(fp)
					defer restore()
					base := runtime.NumGoroutine()

					res, err := cfg.extract(nil, f, r)
					if res != nil {
						t.Fatalf("got a result alongside the failure")
					}
					checkFaultError(t, err, stage, kind)
					if fp.Fired() == 0 {
						t.Fatalf("failpoint at %s never fired (stage unreachable in config %s)", stage, cfg.name)
					}
					restore()
					waitNoLeaks(t, base)
				})
			}
		}
	}
}

// TestFaultParse drives the parse stage through the text entry point
// (the matrix above starts from a parsed file).
func TestFaultParse(t *testing.T) {
	const src = "L NM; B 100 100 0 0;\nE\n"
	for _, kind := range []guard.FaultKind{guard.FaultError, guard.FaultPanic} {
		t.Run(kindName(kind), func(t *testing.T) {
			fp := &guard.Failpoint{Stage: guard.StageParse, Kind: kind}
			restore := guard.SetInjector(fp)
			defer restore()
			_, err := unpooled.CIF(nil, []byte(src), Options{})
			checkFaultError(t, err, guard.StageParse, kind)
		})
	}
}

// TestFaultSkipCount pins the failpoint's determinism end to end: with
// Skip set past the stage's total hits the extraction succeeds and the
// hit count is reproducible, so a test can aim a fault at the N'th
// work unit of a stage and get the same unit every run. The sweep's
// stage is hit once per scanline stop, on the caller's goroutine, while
// the tile reader runs on the pipe's producer.
func TestFaultSkipCount(t *testing.T) {
	r := packFile(t, faultDesign(), 4, 4)
	fp := &guard.Failpoint{Stage: guard.StageSweep, Kind: guard.FaultError, Skip: 1 << 40}
	restore := guard.SetInjector(fp)
	defer restore()
	if _, err := Tiles(r, Options{}); err != nil {
		t.Fatalf("skipped failpoint failed the run: %v", err)
	}
	hits := fp.Hits()
	if hits == 0 {
		t.Fatalf("sweep stage never hit")
	}
	if fp.Fired() != 0 {
		t.Fatalf("failpoint fired %d times despite Skip", fp.Fired())
	}
	fp2 := &guard.Failpoint{Stage: guard.StageSweep, Kind: guard.FaultError, Skip: 1 << 40}
	guard.SetInjector(fp2)
	if _, err := Tiles(r, Options{}); err != nil {
		t.Fatalf("second run failed: %v", err)
	}
	if fp2.Hits() != hits {
		t.Fatalf("sweep hits not reproducible: %d then %d", hits, fp2.Hits())
	}
}

// TestCancelPreCancelled: an already-cancelled context must abort every
// input kind promptly with an error that still satisfies
// errors.Is(err, context.Canceled), and leave no goroutines behind. The
// kinds run once, with heap-serial's options: the tiles and window kinds
// are the tile configs' shapes.
func TestCancelPreCancelled(t *testing.T) {
	f := faultDesign()
	src := []byte(cif.String(f))
	r := packFile(t, f, 4, 4)
	win := lowerLeft(r)
	if res, err := unpooled.TileWindow(nil, r, win, Options{}); err != nil || res.Counters.BoxesIn == 0 {
		t.Fatalf("window %v: %v, %+v", win, err, res)
	}
	kinds := []struct {
		name string
		run  func(ctx context.Context, opt Options) (*Result, error)
	}{
		{"cif", func(ctx context.Context, opt Options) (*Result, error) { return unpooled.CIF(ctx, src, opt) }},
		{"file", func(ctx context.Context, opt Options) (*Result, error) { return unpooled.File(ctx, f, opt) }},
		{"tiles", func(ctx context.Context, opt Options) (*Result, error) { return unpooled.Tiles(ctx, r, opt) }},
		{"window", func(ctx context.Context, opt Options) (*Result, error) { return unpooled.TileWindow(ctx, r, win, opt) }},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := faultConfigs[0]
	t.Run(cfg.name, func(t *testing.T) {
		for _, k := range kinds {
			t.Run(k.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				t0 := time.Now()
				_, err := k.run(ctx, cfg.opt)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("got %v, want context.Canceled through the wrapper", err)
				}
				if d := time.Since(t0); d > 10*time.Second {
					t.Fatalf("cancellation took %v", d)
				}
				waitNoLeaks(t, base)
			})
		}
	})
}

// TestCancelBoundedLatency cancels mid-extraction while an injected
// delay holds the sweep busy, and asserts the pipeline notices within
// a bounded number of checkpoint intervals rather than running the
// design to completion.
func TestCancelBoundedLatency(t *testing.T) {
	f := faultDesign()
	r := packFile(t, f, 4, 4)
	for _, cfg := range faultConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			// Slow the sweep, so the extraction is guaranteed to be
			// mid-flight when cancel fires.
			fp := &guard.Failpoint{Stage: guard.StageSweep, Kind: guard.FaultDelay, Delay: 200 * time.Millisecond}
			restore := guard.SetInjector(fp)
			defer restore()
			base := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			timer := time.AfterFunc(20*time.Millisecond, cancel)
			defer timer.Stop()

			t0 := time.Now()
			_, err := cfg.extract(ctx, f, r)
			elapsed := time.Since(t0)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
			// The checkpoints run cancellation checks before the (injected)
			// delay, so the latency bound is a couple of delay periods, not
			// one delay per remaining scanline stop.
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation latency %v, want bounded", elapsed)
			}
			restore()
			waitNoLeaks(t, base)
		})
	}
}

// bombCIF builds a hierarchy bomb: levels symbols where each level
// instantiates the one below it fanout times, so the flattened design
// holds fanout^(levels-1) boxes — far beyond physical memory for
// 100^9 — while the source text stays a few kilobytes.
func bombCIF(levels, fanout int) string {
	var b strings.Builder
	b.WriteString("DS 1 1 1;\nL NM;\nB 10 10 0 0;\nDF;\n")
	for l := 2; l <= levels; l++ {
		fmt.Fprintf(&b, "DS %d 1 1;\n", l)
		for j := 0; j < fanout; j++ {
			fmt.Fprintf(&b, "C %d T %d %d;\n", l-1, j*20, j*15)
		}
		b.WriteString("DF;\n")
	}
	fmt.Fprintf(&b, "C %d;\nE\n", levels)
	return b.String()
}

// TestHierarchyBombFlat: the 10-level 100x fan-out bomb must fail fast
// in the serial sweep with a typed LimitError — at the first scanline
// stop past the budget, not anything near the 10^18-box flattened
// design. The budgets are small because the lazy heap holds every
// expanded call's pending children: at 100x fan-out it carries about
// 100 entries per box delivered before the checkpoint trips.
func TestHierarchyBombFlat(t *testing.T) {
	f, err := cif.ParseString(bombCIF(10, 100))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		lim  guard.Limits
		what string
	}{
		{"expanded-boxes", guard.Limits{MaxBoxes: 1 << 10}, "boxes"},
		{"memory-bytes", guard.Limits{MaxMemBytes: 1 << 10 * guard.BoxBytes}, "memory bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t0 := time.Now()
			_, err := File(f, Options{Limits: tc.lim})
			elapsed := time.Since(t0)
			var le *guard.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("got %v (%T), want *guard.LimitError", err, err)
			}
			if le.Stage != guard.StageSweep {
				t.Fatalf("limit tripped at %q, want %q", le.Stage, guard.StageSweep)
			}
			if le.What != tc.what {
				t.Fatalf("limit %q tripped, want %q", le.What, tc.what)
			}
			if elapsed > 30*time.Second {
				t.Fatalf("bomb took %v to reject — not failing fast", elapsed)
			}
		})
	}
}

// TestHierarchyBombHeap: the lazily instantiated pipeline must also
// stop at the box budget, in the sweep, instead of streaming the bomb
// to OOM. A smaller bomb keeps the pre-budget streaming cheap.
func TestHierarchyBombHeap(t *testing.T) {
	f, err := cif.ParseString(bombCIF(5, 10))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("serial-sweep", func(t *testing.T) {
		_, err := File(f, Options{Limits: guard.Limits{MaxBoxes: 4096}})
		var le *guard.LimitError
		if !errors.As(err, &le) {
			t.Fatalf("got %v (%T), want *guard.LimitError", err, err)
		}
		if le.Stage != guard.StageSweep {
			t.Fatalf("limit tripped at %q, want %q", le.Stage, guard.StageSweep)
		}
		if le.What != "boxes" {
			t.Fatalf("limit %q tripped, want boxes", le.What)
		}
	})
}

// labelledBombCIF is bombCIF with a label in the leaf, so every call in
// the hierarchy is label-bearing and Labels() must expand all of it
// before the sweep's first checkpoint: fanout^(levels-1) labels.
func labelledBombCIF(levels, fanout int) string {
	return strings.Replace(bombCIF(levels, fanout), "B 10 10 0 0;", "B 10 10 0 0;\n94 X 0 0;", 1)
}

// TestHierarchyBombLabels: the forced label expansion is budgeted too.
// Unbudgeted, the 6-level bomb materialises 100,000 labels (4 s, 77 MiB
// allocated) and the 9-level one runs for hours; both must stop at the
// box budget in the front end, having allocated next to nothing.
func TestHierarchyBombLabels(t *testing.T) {
	lim := guard.Limits{MaxBoxes: 4096, MaxMemBytes: 1 << 20}
	for _, levels := range []int{6, 9} {
		f, err := cif.ParseString(labelledBombCIF(levels, 10))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("levels=%d/serial", levels), func(t *testing.T) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err := File(f, Options{Limits: lim})
			runtime.ReadMemStats(&m1)
			var le *guard.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("got %v (%T), want *guard.LimitError", err, err)
			}
			if le.Stage != guard.StageFrontend {
				t.Fatalf("limit tripped at %q, want %q", le.Stage, guard.StageFrontend)
			}
			if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 8<<20 {
				t.Fatalf("rejecting the bomb allocated %d MiB, want under 8", alloc>>20)
			}
		})
	}
}

// TestHierarchyBombPendingHeap: under a memory budget the sweep counts
// the lazy heap's pending entries, so the unlabelled 100x bomb stops
// once the heap holds the budget's worth — at most one NextTop's
// expansions past it — instead of growing until the box budget, which
// a 1M-box budget lets reach gigabytes.
func TestHierarchyBombPendingHeap(t *testing.T) {
	const levels, fanout = 10, 100
	f, err := cif.ParseString(bombCIF(levels, fanout))
	if err != nil {
		t.Fatal(err)
	}
	lim := guard.Limits{MaxBoxes: 1 << 20, MaxMemBytes: 64 << 20}
	stream, err := frontend.New(f, frontend.Options{Limits: lim})
	if err != nil {
		t.Fatal(err)
	}
	labels := stream.Labels()
	_, err = scan.Sweep(stream, scan.Options{Labels: labels, Limits: lim})
	var le *guard.LimitError
	if !errors.As(err, &le) || le.What != "memory bytes" {
		t.Fatalf("got %v (%T), want a memory-bytes *guard.LimitError", err, err)
	}
	// A pending entry costs at least a 16-byte key and a 40-byte box
	// payload; one NextTop descends at most levels-1 calls, each
	// pushing fanout entries.
	const entryMin = 56
	limit := int(lim.MaxMemBytes/entryMin) + (levels-1)*fanout
	if peak := stream.Stats().PeakHeap; peak > limit {
		t.Fatalf("heap peaked at %d entries, want at most %d (budget plus one expansion)", peak, limit)
	}
}

// TestGuardedPipelineByteIdentical: with a live context and every
// budget armed (but none tripping), the wirelist must stay
// byte-identical to the unguarded run, on the CIF pipeline and on the
// tile sweep alike — the hardening layer is a pure no-op on the happy
// path.
func TestGuardedPipelineByteIdentical(t *testing.T) {
	lim := guard.Limits{
		MaxBoxes:    1 << 40,
		MaxMemBytes: 1 << 50,
		MaxDepth:    1000,
	}
	designs := map[string]*cif.File{
		"statistical": faultDesign(),
		"cherry":      gen.MustBenchChip("cherry").File,
		"mesh":        gen.Mesh(5).File,
	}
	for name, f := range designs {
		want := formatWirelist(t, name, f, Options{})
		r := packFile(t, f, 4, 4)
		for _, leg := range []string{"cif", "tiles"} {
			var res *Result
			var err error
			if leg == "cif" {
				res, err = File(f, Options{Limits: lim})
			} else {
				res, err = Tiles(r, Options{Limits: lim})
			}
			if err != nil {
				t.Fatalf("%s %s: %v", name, leg, err)
			}
			got := wirelist.Format(res.Netlist, wirelist.Options{})
			if got != want {
				i := diffPos(want, got)
				t.Fatalf("%s %s: guarded wirelist differs at byte %d", name, leg, i)
			}
		}
	}
}
