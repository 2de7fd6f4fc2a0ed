package hext

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortEdges must leave tied edges in the order sort.Slice left them in,
// since the compose's equivalence and export order follow it. Both run
// the same pdqsort, so the permutations agree; this pins it over inputs
// with heavy ties, including the lengths where pdqsort switches from
// insertion sort to partitioning and its pattern breaking.
func TestSortEdgesMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(300)
		span := 1 + rng.Int63n(8)
		es := make([]edge, n)
		for i := range es {
			es[i] = edge{lo: rng.Int63n(span), hi: rng.Int63n(100), ref: int32(i)}
		}
		if trial%4 == 0 {
			slices.SortFunc(es, func(a, b edge) int { return int(b.lo - a.lo) })
		}
		want := slices.Clone(es)
		sort.Slice(want, func(i, j int) bool { return want[i].lo < want[j].lo })
		sortEdges(es)
		if !slices.Equal(es, want) {
			t.Fatalf("trial %d (%d edges, lo in [0,%d)): sortEdges permutes ties differently from sort.Slice", trial, n, span)
		}
	}
}
