// Benchmark for the band-sharded parallel sweep (extract.Options
// Workers). On a single-core machine the banded path can only show
// its stitch overhead — the speedup column is meaningful on multi-core
// hosts; bench/ (bash bench/run.sh) records the host's core count
// alongside its numbers so baselines stay honest.
package ace

import (
	"fmt"
	"testing"

	"ace/internal/extract"
	"ace/internal/gen"
)

// BenchmarkParallelExtract sweeps worker counts over the largest
// synthetic chip; workers=1 is the serial reference.
func BenchmarkParallelExtract(b *testing.B) {
	w := gen.MustBenchChip("riscb")
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var boxes, devs int
			for i := 0; i < b.N; i++ {
				res, err := extract.File(w.File, extract.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				boxes, devs = res.Counters.BoxesIn, len(res.Netlist.Devices)
			}
			b.ReportMetric(float64(boxes), "boxes")
			b.ReportMetric(float64(devs), "devices")
		})
	}
}

// BenchmarkParallelExtractChips covers the remaining chips at the
// fixed worker count the equivalence tests use, so regressions in the
// band partitioner or seam stitcher show up per design.
func BenchmarkParallelExtractChips(b *testing.B) {
	for _, w := range gen.BenchChips() {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := extract.File(w.File, extract.Options{Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
