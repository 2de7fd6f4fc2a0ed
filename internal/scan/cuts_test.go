package scan

import (
	"slices"
	"sort"
	"testing"

	"ace/internal/frontend"
	"ace/internal/geom"
)

// pseudoTopBoxes builds n boxes with deterministic pseudo-random tops
// (an LCG; no math/rand setup), already in descending-top order.
func pseudoTopBoxes(n int, dup bool) []frontend.Box {
	out := make([]frontend.Box, n)
	state := uint64(0x243f6a8885a308d3)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		top := int64(state >> 45)
		if dup {
			top &^= 7 // cluster tops so quantiles hit ties
		}
		out[i] = frontend.Box{Rect: geom.Rect{XMin: 0, YMin: top - 10, XMax: 10, YMax: top}}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rect.YMax > out[j].Rect.YMax })
	return out
}

// cutCases is the box-list table both cut tests run, including a
// degenerate input where every top ties.
func cutCases() [][]frontend.Box {
	return [][]frontend.Box{
		pseudoTopBoxes(1, false),
		pseudoTopBoxes(7, false),
		pseudoTopBoxes(100, false),
		pseudoTopBoxes(257, true),
		make([]frontend.Box, 50), // all tops equal (zero)
	}
}

// chooseCuts is the reference cut rule over a descending-top box list:
// the distinct tops at box-count quantile ranks k*n/workers that lie
// below the global top, in descending order.
func chooseCuts(boxes []frontend.Box, workers int) []int64 {
	var cuts []int64
	n := len(boxes)
	for k := 1; k < workers; k++ {
		if c := boxes[k*n/workers].Rect.YMax; c < boxes[0].Rect.YMax && !slices.Contains(cuts, c) {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// TestChooseCuts checks the invariants of CutsFromTopsFunc, the one cut
// chooser: for any top list and worker count, the cuts are strictly
// decreasing box tops (so scanline stops) below the global top, at most
// workers-1 of them, found with at most workers top probes. Degenerate
// inputs where every top ties must produce no cuts.
func TestChooseCuts(t *testing.T) {
	for ci, boxes := range cutCases() {
		n := len(boxes)
		for workers := 2; workers <= 9; workers++ {
			probes := 0
			cuts := CutsFromTopsFunc(n, func(i int) int64 { probes++; return boxes[i].Rect.YMax }, workers)
			if len(cuts) > workers-1 {
				t.Fatalf("case %d workers %d: %d cuts %v", ci, workers, len(cuts), cuts)
			}
			if probes > workers {
				t.Fatalf("case %d workers %d: %d top probes, want at most %d", ci, workers, probes, workers)
			}
			prev := boxes[0].Rect.YMax
			for _, c := range cuts {
				if c >= prev {
					t.Fatalf("case %d workers %d: cuts not strictly decreasing below the top: %v", ci, workers, cuts)
				}
				if !slices.ContainsFunc(boxes, func(b frontend.Box) bool { return b.Rect.YMax == c }) {
					t.Fatalf("case %d workers %d: cut %d is no box top", ci, workers, c)
				}
				prev = c
			}
			if boxes[n-1].Rect.YMax == boxes[0].Rect.YMax && len(cuts) != 0 {
				t.Fatalf("case %d workers %d: every top ties, got cuts %v", ci, workers, cuts)
			}
		}
	}
}

// TestCutsFromTopsMatchesChooseCuts pins which cuts are picked: the rank
// lookup CutsFromTopsFunc runs (the tiled reader resolves it by decoding
// only the tile rows the probes land in) must return exactly the
// quantile cuts chooseCuts takes from the sorted box list, for any
// worker count, so every sub-top quantile yields a cut.
func TestCutsFromTopsMatchesChooseCuts(t *testing.T) {
	for ci, boxes := range cutCases() {
		for workers := 2; workers <= 9; workers++ {
			want := chooseCuts(boxes, workers)
			got := CutsFromTopsFunc(len(boxes), func(i int) int64 { return boxes[i].Rect.YMax }, workers)
			if !slices.Equal(want, got) {
				t.Fatalf("case %d workers %d: chooseCuts %v, CutsFromTopsFunc %v",
					ci, workers, want, got)
			}
		}
	}
}
