package scan

import (
	"math/rand"
	"slices"
	"testing"

	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/wirelist"
)

// TestStopBatchOrderIndependence: a source may deliver the boxes that
// share a top in any order — the front end's heap, a tile row, a
// pipelined chunk — and the wirelist must not depend on which. The
// sweep sorts each stop's batch on the whole box, so shuffling every
// equal-top run of a real chip's box stream must leave the bytes, with
// and without geometry, unchanged.
func TestStopBatchOrderIndependence(t *testing.T) {
	designs := gen.BenchChips()
	designs = append(designs, gen.Statistical(20000, 5))
	for i, w := range designs {
		t.Run(w.Name, func(t *testing.T) {
			stream, err := frontend.New(w.File, frontend.Options{})
			if err != nil {
				t.Fatal(err)
			}
			labels := stream.Labels()
			boxes := stream.Drain()
			want := sweepWirelists(t, boxes, labels)

			rng := rand.New(rand.NewSource(int64(i) + 1))
			shuffled := append([]frontend.Box(nil), boxes...)
			runs := 0
			for lo := 0; lo < len(shuffled); {
				hi := lo + 1
				for hi < len(shuffled) && shuffled[hi].Rect.YMax == shuffled[lo].Rect.YMax {
					hi++
				}
				if hi-lo > 1 {
					run := shuffled[lo:hi]
					rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
					runs++
				}
				lo = hi
			}
			if runs == 0 {
				t.Fatalf("no equal-top runs to shuffle")
			}
			got := sweepWirelists(t, shuffled, labels)
			for geo := range want {
				if got[geo] != want[geo] {
					t.Errorf("geometry=%v: wirelist changed after shuffling %d equal-top runs", geo == 1, runs)
				}
			}
		})
	}
}

// sweepWirelists sweeps top-sorted boxes and renders the wirelist
// without and with geometry.
func sweepWirelists(t *testing.T, boxes []frontend.Box, labels []frontend.Label) [2]string {
	t.Helper()
	res, err := Sweep(NewBoxSource(boxes), Options{KeepGeometry: true, Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	return [2]string{
		wirelist.Format(res.Netlist, wirelist.Options{}),
		wirelist.Format(res.Netlist, wirelist.Options{Geometry: true}),
	}
}

// TestSortBatch: sortBatch agrees with a library sort on the same
// order, on both sides of binaryInsertMax and with duplicate keys.
func TestSortBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 119, binaryInsertMax, binaryInsertMax + 1, 3000} {
		v := make([]abox, n)
		for i := range v {
			x0 := int64(rng.Intn(n/4 + 1))
			v[i] = abox{x0: x0, x1: x0 + int64(rng.Intn(3)), bottom: -int64(rng.Intn(3))}
		}
		want := slices.Clone(v)
		slices.SortFunc(want, func(a, b abox) int {
			if lessAbox(&a, &b) {
				return -1
			}
			if lessAbox(&b, &a) {
				return 1
			}
			return 0
		})
		sortBatch(v)
		if !slices.Equal(v, want) {
			t.Fatalf("n=%d: sortBatch disagrees with slices.SortFunc", n)
		}
	}
}
