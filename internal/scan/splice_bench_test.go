package scan

import (
	"sort"
	"testing"
)

// Stop batches are the boxes of one layer whose top edges coincide at
// one scanline stop. Measured on the Table 5-1 chips at scale 1.0:
// cherry averages 8 boxes per batch, testram 119, and riscb's largest
// batch is 612; the 1024 case is past binaryInsertMax.
var stopBatchSizes = []struct {
	name string
	n    int
}{
	{"batch=8", 8},
	{"batch=119", 119},
	{"batch=612", 612},
	{"batch=1024", 1024},
}

// pseudoBatch produces a deterministic unsorted batch of boxes; a
// small LCG keeps the benchmark free of math/rand setup cost.
func pseudoBatch(n int) []abox {
	out := make([]abox, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		x0 := int64(state>>40) % 10000
		out[i] = abox{x0: x0, x1: x0 + 50, bottom: -int64(i)}
	}
	return out
}

// BenchmarkStopBatchSort measures what mergeNew does: append the
// batch as it arrives, then sort it once (sortBatch).
func BenchmarkStopBatchSort(b *testing.B) {
	for _, sz := range stopBatchSizes {
		batch := pseudoBatch(sz.n)
		b.Run(sz.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]abox, 0, sz.n)
			for i := 0; i < b.N; i++ {
				buf = append(buf[:0], batch...)
				sortBatch(buf)
			}
		})
	}
}

// BenchmarkStopBatchSplice measures the replaced approach: each box
// spliced into place as it arrives, found by sort.Search, keyed on x0
// alone (so equal-x0 boxes kept their arrival order).
func BenchmarkStopBatchSplice(b *testing.B) {
	for _, sz := range stopBatchSizes {
		batch := pseudoBatch(sz.n)
		b.Run(sz.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]abox, 0, sz.n)
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, nb := range batch {
					j := sort.Search(len(buf), func(k int) bool { return buf[k].x0 > nb.x0 })
					buf = append(buf, abox{})
					copy(buf[j+1:], buf[j:])
					buf[j] = nb
				}
			}
		})
	}
}
