// Benchmarks regenerating every table and figure of the two papers'
// evaluations. Each benchmark corresponds to an experiment in
// DESIGN.md §3 (E1–E10); EXPERIMENTS.md records the measured series
// next to the published ones. The full-size runs live behind
// cmd/ace -table51/-table52 and cmd/hext -table41/-table51/-table52;
// the benchmarks here use scaled chips so `go test -bench=.` finishes
// in minutes. Set -benchtime=1x for a quick pass.
package ace

import (
	"fmt"
	"testing"

	"ace/internal/cif"
	"ace/internal/cifplot"
	"ace/internal/extract"
	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/hext"
	"ace/internal/raster"
)

// E1 — Figure 3-3/3-4: the inverter, end to end.
func BenchmarkFig3InverterExtract(b *testing.B) {
	f := gen.Inverter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := extract.File(f, extract.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Netlist.Devices) != 2 {
			b.Fatal("wrong extraction")
		}
	}
}

// E2 — ACE Table 5-1: per-chip extraction rate. The paper's claim is
// that devices/sec and boxes/sec stay roughly flat as chips grow
// (linear time). The metrics devs/s and boxes/s are reported per
// benchmark for comparison across chips.
func BenchmarkTable51_ACE(b *testing.B) {
	for _, w := range gen.BenchChips() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var devices, boxes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := extract.File(w.File, extract.Options{})
				if err != nil {
					b.Fatal(err)
				}
				devices = len(res.Netlist.Devices)
				boxes = res.Counters.BoxesIn
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(devices)/sec, "devs/s")
			b.ReportMetric(float64(boxes)/sec, "boxes/s")
		})
	}
}

// E3 — ACE Table 5-2: ACE vs Partlist (raster) vs Cifplot (region
// pairwise) on the same chips. The paper's ordering is
// ACE < Partlist < Cifplot.
func BenchmarkTable52(b *testing.B) {
	chips := []string{"cherry", "dchip", "schip2", "testram", "riscb"}
	for _, name := range chips {
		w := gen.MustBenchChip(name)
		boxes, labels := benchDrain(b, w.File)

		b.Run("ACE/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := extract.File(w.File, extract.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Partlist/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := raster.ExtractBoxes(boxes, raster.Options{
					Grid: gen.Lambda, Labels: labels,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Cifplot/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cifplot.ExtractBoxes(boxes, cifplot.Options{Labels: labels}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E4 — ACE §5 time distribution. Reported as percentage metrics; the
// paper's split is 40/15/20/10/15 (frontend/insert/devices/alloc/misc).
func BenchmarkPhaseBreakdown(b *testing.B) {
	w := gen.MustBenchChip("dchip")
	src := cif.String(w.File)
	var p extract.Phases
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := extract.String(src, extract.Options{Profile: true})
		if err != nil {
			b.Fatal(err)
		}
		p = res.Phases
	}
	b.StopTimer()
	// Shares of the summed busy time: the front end overlaps the sweep.
	if busy := p.Busy().Seconds(); busy > 0 {
		b.ReportMetric(100*(p.Parse+p.FrontEnd).Seconds()/busy, "%frontend")
		b.ReportMetric(100*p.Insert.Seconds()/busy, "%insert")
		b.ReportMetric(100*p.Devices.Seconds()/busy, "%devices")
		b.ReportMetric(100*p.Output.Seconds()/busy, "%output")
		b.ReportMetric(100*p.Misc().Seconds()/busy, "%misc")
		b.ReportMetric(busy/p.Total.Seconds(), "overlap")
	}
}

// E5 — ACE §4 worst case: the n×n mesh where 2n boxes denote n²
// transistors. Time per run must grow ~quadratically in n.
func BenchmarkWorstCaseMesh(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := gen.Mesh(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := extract.File(w.File, extract.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Netlist.Devices) != n*n {
					b.Fatal("wrong device count")
				}
			}
		})
	}
}

// E6 — ACE §4 expected-case model: under the Bentley–Haken–Hon box
// distribution, scanline stops and the active-list length grow as
// O(√N). Reported as metrics: quadrupling N should double both.
func BenchmarkExpectedModel(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := gen.Statistical(n, 42)
			var stops, maxActive int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := extract.File(w.File, extract.Options{})
				if err != nil {
					b.Fatal(err)
				}
				stops = res.Counters.Stops
				maxActive = res.Counters.MaxActive
			}
			b.StopTimer()
			b.ReportMetric(float64(stops), "stops")
			b.ReportMetric(float64(maxActive), "maxActive")
		})
	}
}

// E7 — HEXT Figure 2-1/2-2: the four-inverter example, hierarchically.
func BenchmarkFig2FourInverters_HEXT(b *testing.B) {
	f := gen.FourInverters()
	for i := 0; i < b.N; i++ {
		res, err := hext.Extract(f, hext.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Netlist.Devices) != 8 {
			b.Fatal("wrong extraction")
		}
	}
}

// E8 — HEXT Table 4-1: the ideal square array. The hierarchical
// extraction time excluding flattening (metric "extract_us") should
// roughly double per 4× cells (O(√N)); the flat extractor's time
// quadruples. uniqWindows shows the memoisation at work.
func BenchmarkTable41_HEXT(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := gen.SquareArray(n)
			var res *hext.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = hext.Extract(w.File, hext.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ex := res.Timing.FrontEnd + res.Timing.BackEnd()
			b.ReportMetric(float64(ex.Microseconds()), "extract_us")
			b.ReportMetric(float64(res.Counters.UniqueWindows), "uniqWindows")
		})
	}
}

// BenchmarkTable41_Flat is the flat column of Table 4-1.
func BenchmarkTable41_Flat(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := gen.SquareArray(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := extract.File(w.File, extract.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E9 — HEXT Table 5-1: HEXT vs flat on the synthetic chips. HEXT wins
// big on testram (regular), loses on schip2 (irregular).
func BenchmarkTable51_HEXT(b *testing.B) {
	for _, name := range []string{"cherry", "dchip", "schip2", "testram", "psc", "riscb"} {
		w := gen.MustBenchChip(name)
		b.Run(name, func(b *testing.B) {
			var res *hext.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = hext.Extract(w.File, hext.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ex := res.Timing.FrontEnd + res.Timing.BackEnd()
			b.ReportMetric(float64(ex.Microseconds()), "extract_us")
			b.ReportMetric(float64(res.Timing.FrontEnd.Microseconds()), "frontend_us")
			b.ReportMetric(float64(res.Timing.BackEnd().Microseconds()), "backend_us")
		})
	}
}

// E10 — HEXT Table 5-2: the share of back-end time spent composing
// windows (the paper averages 72%), plus the call counts.
func BenchmarkTable52_HEXT_Compose(b *testing.B) {
	for _, name := range []string{"cherry", "dchip", "schip2", "testram", "psc", "riscb"} {
		w := gen.MustBenchChip(name)
		b.Run(name, func(b *testing.B) {
			var res *hext.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = hext.Extract(w.File, hext.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			be := res.Timing.BackEnd().Seconds()
			if be > 0 {
				b.ReportMetric(100*res.Timing.Compose.Seconds()/be, "%compose")
			}
			b.ReportMetric(float64(res.Counters.FlatCalls), "flatCalls")
			b.ReportMetric(float64(res.Counters.ComposeCalls), "composeCalls")
		})
	}
}

func benchDrain(b *testing.B, f *cif.File) ([]frontend.Box, []frontend.Label) {
	b.Helper()
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return stream.Drain(), stream.Labels()
}
