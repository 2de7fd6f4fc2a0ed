//go:build !race

// Excluded under -race: the race runtime adds its own allocations,
// which would make the pinned budgets meaningless.

package extract

import (
	"os"
	"path/filepath"
	"testing"

	"ace/internal/gen"
	"ace/internal/geom"
)

// warmCorpusSource loads one small corpus design for the parse-included
// budget.
func warmCorpusSource() ([]byte, error) {
	return os.ReadFile(filepath.Join("testdata", "polygons.cif"))
}

// Steady-state allocation budgets for a warm Engine. The floor is not
// zero: Finish must allocate the output netlist itself (the Nets and
// Devices slices, one shared terminal backing array, the Result) —
// those allocations hand ownership to the caller and cannot be pooled
// without breaking the isolation contract. Everything else — parse
// arenas, front-end streams, sweeper interval lists, builder arenas,
// sort scratch — is pooled, which is the difference between the cold
// path's hundreds of allocations per run and these numbers.
//
// Measured on the pinned toolchain: 11 allocs/op warm vs 244 cold for
// warmAllocChip (a 95% reduction). The budgets below carry ~3x slack
// so routine toolchain/runtime drift does not trip them; a regression
// that re-introduces per-run scratch (a forgotten pool, a closure in a
// hot sort) overshoots them by an order of magnitude.
const (
	warmAllocBudget     = 32
	warmAllocChip       = "cherry"
	warmAllocChipScale  = 0.05
	warmAllocWarmupRuns = 3
)

// TestWarmEngineAllocs pins the steady-state allocs/op of warm Engine
// extraction — the regression test for the amortized hot path — on
// the parsed design (File), on its packed tile file (Tiles) and on the
// file's lower-left quarter (TileWindow), all at the same budget. The
// tile rows hold the merge heap and the pipe to the pools: a per-row
// sort or a fresh pipe per call overshoots the budget.
func TestWarmEngineAllocs(t *testing.T) {
	c, ok := gen.ChipByName(warmAllocChip)
	if !ok {
		t.Fatalf("no %s chip", warmAllocChip)
	}
	w := c.Build(warmAllocChipScale)
	r := packFile(t, w.File, 16, 16)
	bb := r.BBox()
	win := geom.Rect{XMin: bb.XMin, YMin: bb.YMin, XMax: (bb.XMin + bb.XMax) / 2, YMax: (bb.YMin + bb.YMax) / 2}
	eng := NewEngine()
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"file", func() (*Result, error) { return eng.File(nil, w.File, Options{}) }},
		{"tiles", func() (*Result, error) { return eng.Tiles(nil, r, Options{}) }},
		{"window", func() (*Result, error) { return eng.TileWindow(nil, r, win, Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < warmAllocWarmupRuns; i++ {
				if res, err := tc.run(); err != nil || res.Counters.BoxesIn == 0 {
					t.Fatalf("%v, %d boxes", err, res.Counters.BoxesIn)
				}
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := tc.run(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("warm Engine %s: %.1f allocs/op (budget %d)", tc.name, avg, warmAllocBudget)
			if avg > warmAllocBudget {
				t.Errorf("warm Engine %s allocates %.1f allocs/op, budget %d — a pool stopped being used on the hot path",
					tc.name, avg, warmAllocBudget)
			}
		})
	}
}

// TestWarmEngineAllocsParse covers the full warm path including the
// pooled-arena CIF parse (Engine.CIF rather than Engine.File). The
// parse adds the File skeleton and reader state on top of the sweep.
func TestWarmEngineAllocsParse(t *testing.T) {
	src, err := warmCorpusSource()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	for i := 0; i < warmAllocWarmupRuns; i++ {
		if _, err := eng.CIF(nil, src, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := eng.CIF(nil, src, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 10 allocs/op on the pinned toolchain (the fixture has
	// polygons, so pooled manhattanisation scratch is in play); ~3x
	// slack.
	const budget = 32
	t.Logf("warm Engine (with parse): %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("warm parse+extract allocates %.1f allocs/op, budget %d", avg, budget)
	}
}
