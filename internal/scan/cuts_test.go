package scan

import (
	"reflect"
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

// TestCutsFromTopsMatchesChooseCuts pins the lockstep chooseCuts's
// comment promises: CutsFromTops over the sorted top list must return
// exactly the cuts chooseCuts picks from the sorted box list, for any
// worker count — including degenerate inputs where every top ties.
func TestCutsFromTopsMatchesChooseCuts(t *testing.T) {
	cases := [][]frontend.Box{
		pseudoTopBoxes(1, false),
		pseudoTopBoxes(7, false),
		pseudoTopBoxes(100, false),
		pseudoTopBoxes(257, true),
		make([]frontend.Box, 50), // all tops equal (zero)
	}
	for ci, boxes := range cases {
		tops := make([]int64, len(boxes))
		for i, b := range boxes {
			tops[i] = b.Rect.YMax
		}
		for workers := 2; workers <= 9; workers++ {
			want := chooseCuts(boxes, workers)
			got := CutsFromTops(tops, workers)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("case %d workers %d: chooseCuts %v, CutsFromTops %v",
					ci, workers, want, got)
			}
		}
	}
}
