// Benchmark for the band-sharded tiled sweep (extract.Options.Workers,
// which only Engine.Tiles reads). On a single-core machine the banded
// path can only show its stitch overhead — the speedup column is
// meaningful on multi-core hosts; bench/ (bash bench/run.sh) records
// the host's core count alongside its numbers so baselines stay honest.
package ace

import (
	"bytes"
	"fmt"
	"testing"

	"ace/internal/cif"
	"ace/internal/extract"
	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/tile"
)

// BenchmarkParallelExtract sweeps worker counts over the largest
// synthetic chip, packed in memory as cifpack packs it; workers=1 is
// the serial reference.
func BenchmarkParallelExtract(b *testing.B) {
	r := packInMemory(b, gen.MustBenchChip("riscb").File)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var boxes, devs int
			for i := 0; i < b.N; i++ {
				res, err := extract.Tiles(r, extract.Options{Workers: workers})
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

// packInMemory streams a design through the front end into an
// in-memory tile file on cifpack's default grid.
func packInMemory(b *testing.B, f *cif.File) *tile.Reader {
	b.Helper()
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := tile.NewWriter(&buf, tile.NewGrid(stream.BBox(), tile.DefaultGrid, tile.DefaultGrid))
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range stream.Labels() {
		w.AddLabel(l)
	}
	for bx, ok := stream.Next(); ok; bx, ok = stream.Next() {
		if err := w.Add(bx); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := tile.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	return r
}
