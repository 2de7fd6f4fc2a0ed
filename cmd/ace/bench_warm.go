package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/hext"
	"ace/internal/prof"
	"ace/internal/wirelist"
)

// warmLoopN is the explicit warm-loop length the GC deltas are taken
// over: long enough for the pools to reach steady state and for
// collector activity (or its absence) to be visible, short enough to
// keep the whole sweep tractable on a laptop.
const warmLoopN = 100

// benchCost is one measured configuration: the triple that matters for
// an amortization claim.
type benchCost struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

func toCost(r testing.BenchmarkResult) benchCost {
	return benchCost{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func reductionPct(cold, warm int64) float64 {
	if cold <= 0 {
		return 0
	}
	return 100 * float64(cold-warm) / float64(cold)
}

// warmCaseResult compares one input's package-level (cold) extraction
// against extraction through a reused Engine (warm). GCDelta covers an
// explicit warmLoopN-iteration warm loop; ByteIdentical reports whether
// every reuse × Workers combination reproduced the cold serial
// wirelist bit for bit.
type warmCaseResult struct {
	Case              string       `json:"case"`
	Source            string       `json:"source"` // "corpus" or "gen"
	Boxes             int          `json:"boxes"`
	Devices           int          `json:"devices"`
	Nets              int          `json:"nets"`
	Cold              benchCost    `json:"cold"`
	Warm              benchCost    `json:"warm"`
	AllocReductionPct float64      `json:"alloc_reduction_pct"`
	GCDelta           prof.GCStats `json:"gc_delta_warm_loop"`
	ByteIdentical     bool         `json:"byte_identical"`
}

// warmHextResult is the hierarchical engine's half: a fresh Session per
// extraction (cold) against one Session re-extracting the same design
// (warm, where the memo and pooled sweep scratch live).
type warmHextResult struct {
	Case              string       `json:"case"`
	Cold              benchCost    `json:"cold"`
	Warm              benchCost    `json:"warm"`
	AllocReductionPct float64      `json:"alloc_reduction_pct"`
	GCDelta           prof.GCStats `json:"gc_delta_warm_loop"`
	ByteIdentical     bool         `json:"byte_identical"`
}

type warmBenchReport struct {
	Env   benchEnv `json:"env"`
	LoopN int      `json:"loop_n"`
	// ByteIdentical is the AND over every case and setting — the whole
	// report's correctness gate, hoisted so a harness can check one key.
	ByteIdentical bool             `json:"byte_identical"`
	Results       []warmCaseResult `json:"results"`
	Hext          []warmHextResult `json:"hext"`
	PeakRSSBytes  int64            `json:"peak_rss_bytes"`
}

// warmCase is one benchmark input with both entry forms: run executes
// an extraction (package-level when eng is nil, through eng otherwise).
type warmCase struct {
	name   string
	source string
	run    func(eng *extract.Engine, opt extract.Options) (*extract.Result, error)
}

// corpusCases loads the checked-in CIF corpus. The paths are relative
// to the repo root; a run from elsewhere just gets the gen chips.
func corpusCases() []warmCase {
	paths, _ := filepath.Glob(filepath.Join("internal", "extract", "testdata", "*.cif"))
	var cases []warmCase
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		text := string(src)
		name := filepath.Base(p)
		cases = append(cases, warmCase{
			name:   name,
			source: "corpus",
			run: func(eng *extract.Engine, opt extract.Options) (*extract.Result, error) {
				if eng == nil {
					return extract.String(text, opt)
				}
				return eng.String(text, opt)
			},
		})
	}
	return cases
}

func genCases(scale float64) []warmCase {
	var cases []warmCase
	for _, c := range gen.Chips {
		w := c.Build(scale)
		f := w.File
		cases = append(cases, warmCase{
			name:   c.Name,
			source: "gen",
			run: func(eng *extract.Engine, opt extract.Options) (*extract.Result, error) {
				if eng == nil {
					return extract.File(f, opt)
				}
				return eng.File(f, opt)
			},
		})
	}
	return cases
}

// checkByteIdentity renders the warm outputs of every reuse count ×
// Workers setting and compares them against the cold serial baseline.
// Each setting gets a fresh Engine reused reuses times, rendering
// through the Engine's pooled output buffer so the render path itself
// exercises reuse too.
func checkByteIdentity(c warmCase, baseline []byte) (bool, error) {
	const reuses = 3
	for _, sw := range []int{1, 4} {
		opt := extract.Options{Workers: sw}
		eng := extract.NewEngine()
		for i := 0; i < reuses; i++ {
			res, err := c.run(eng, opt)
			if err != nil {
				return false, fmt.Errorf("%s sw=%d reuse=%d: %v", c.name, sw, i, err)
			}
			out, err := wirelist.AppendTo(eng.GetOutBuf(), res.Netlist, wirelist.Options{})
			if err != nil {
				return false, err
			}
			same := bytes.Equal(out, baseline)
			eng.PutOutBuf(out)
			if !same {
				fmt.Fprintf(os.Stderr, "ace: %s sw=%d reuse=%d: output DIVERGED from cold serial baseline\n",
					c.name, sw, i)
				return false, nil
			}
		}
	}
	return true, nil
}

// runBenchWarmJSON measures cold-vs-warm extraction cost over the CIF
// corpus and the synthetic chips, verifies byte-identity of every warm
// combination, and writes the machine-readable report the amortization
// claim rests on. Everything runs serially (Workers=1) for the cost
// rows — allocation is the metric under comparison and the byte-identity
// sweep covers the parallel settings.
func runBenchWarmJSON(path string, scale float64) {
	report := warmBenchReport{
		Env:           benchEnv{Env: prof.CaptureEnv(), Scale: scale},
		LoopN:         warmLoopN,
		ByteIdentical: true,
	}

	opt := extract.Options{Workers: 1}
	cases := append(corpusCases(), genCases(scale)...)
	for _, c := range cases {
		// Untimed probe: design-dependent counts plus the byte-identity
		// baseline (cold, serial, package-level).
		probe, err := c.run(nil, opt)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", c.name, err))
		}
		baseline, err := wirelist.AppendTo(nil, probe.Netlist, wirelist.Options{})
		if err != nil {
			fatal(err)
		}

		cold := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.run(nil, opt); err != nil {
					b.Fatal(err)
				}
			}
		})

		eng := extract.NewEngine()
		// Two warmup runs fill the pools before anything is measured.
		for i := 0; i < 2; i++ {
			if _, err := c.run(eng, opt); err != nil {
				fatal(err)
			}
		}
		warm := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.run(eng, opt); err != nil {
					b.Fatal(err)
				}
			}
		})

		// Collector activity over an explicit steady-state loop.
		gc0 := prof.CaptureGC()
		for i := 0; i < warmLoopN; i++ {
			if _, err := c.run(eng, opt); err != nil {
				fatal(err)
			}
		}
		gcd := prof.CaptureGC().Delta(gc0)

		ident, err := checkByteIdentity(c, baseline)
		if err != nil {
			fatal(err)
		}
		report.ByteIdentical = report.ByteIdentical && ident

		r := warmCaseResult{
			Case:              c.name,
			Source:            c.source,
			Boxes:             probe.Counters.BoxesIn,
			Devices:           len(probe.Netlist.Devices),
			Nets:              len(probe.Netlist.Nets),
			Cold:              toCost(cold),
			Warm:              toCost(warm),
			AllocReductionPct: reductionPct(cold.AllocsPerOp(), warm.AllocsPerOp()),
			GCDelta:           gcd,
			ByteIdentical:     ident,
		}
		report.Results = append(report.Results, r)
		fmt.Fprintf(os.Stderr, "%-14s cold %8d allocs/op  warm %6d allocs/op  (-%.1f%%)  %12v/op warm  gc=%d ident=%v\n",
			c.name, r.Cold.AllocsPerOp, r.Warm.AllocsPerOp, r.AllocReductionPct,
			time.Duration(r.Warm.NsPerOp), gcd.NumGC, ident)
	}

	report.Hext = append(report.Hext, benchWarmHext(scale))
	for _, h := range report.Hext {
		report.ByteIdentical = report.ByteIdentical && h.ByteIdentical
	}

	report.PeakRSSBytes = prof.PeakRSSBytes()
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (byteIdentical=%v)\n", path, report.ByteIdentical)
}

// benchWarmHext measures the hierarchical engine's warm loop on the
// first synthetic chip: a fresh Session per extraction (cold — the
// memo, content cache and sweep pools are rebuilt every time) against
// one Session re-extracting the same design (warm — everything hits).
func benchWarmHext(scale float64) warmHextResult {
	c := gen.Chips[0]
	w := c.Build(scale)
	hopt := hext.Options{}

	probe, err := hext.Extract(w.File, hopt)
	if err != nil {
		fatal(err)
	}
	baseline := wirelist.Format(probe.Netlist, wirelist.Options{})

	cold := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hext.Extract(w.File, hopt); err != nil {
				b.Fatal(err)
			}
		}
	})

	s := hext.NewSession(hopt)
	ident := true
	for i := 0; i < 2; i++ {
		res, err := s.Extract(w.File)
		if err != nil {
			fatal(err)
		}
		if wirelist.Format(res.Netlist, wirelist.Options{}) != baseline {
			ident = false
		}
	}
	warm := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Extract(w.File); err != nil {
				b.Fatal(err)
			}
		}
	})

	gc0 := prof.CaptureGC()
	for i := 0; i < warmLoopN; i++ {
		if _, err := s.Extract(w.File); err != nil {
			fatal(err)
		}
	}
	gcd := prof.CaptureGC().Delta(gc0)

	res := warmHextResult{
		Case:              "hext/" + c.Name,
		Cold:              toCost(cold),
		Warm:              toCost(warm),
		AllocReductionPct: reductionPct(cold.AllocsPerOp(), warm.AllocsPerOp()),
		GCDelta:           gcd,
		ByteIdentical:     ident,
	}
	fmt.Fprintf(os.Stderr, "%-14s cold %8d allocs/op  warm %6d allocs/op  (-%.1f%%)  %12v/op warm  gc=%d ident=%v\n",
		res.Case, res.Cold.AllocsPerOp, res.Warm.AllocsPerOp, res.AllocReductionPct,
		time.Duration(res.Warm.NsPerOp), gcd.NumGC, ident)
	return res
}
