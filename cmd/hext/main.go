// Command hext is the hierarchical circuit extractor.
//
// Usage:
//
//	hext [flags] [input.cif]        extract a design (stdin if no file)
//	hext -table41                   reproduce HEXT Table 4-1 (ideal arrays)
//	hext -table51 [-scale 0.1]      reproduce HEXT Table 5-1 (HEXT vs ACE)
//	hext -table52 [-scale 0.1]      reproduce HEXT Table 5-2 (compose analysis)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ace/internal/check"
	"ace/internal/cif"
	"ace/internal/cli"
	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/guard"
	"ace/internal/hext"
	"ace/internal/prof"
	"ace/internal/store"
	"ace/internal/wirelist"
)

// flagCacheDir and the other cache flags are threaded into every
// extraction the command runs; flagTimeout is the -timeout wall-clock
// budget for a plain extraction run.
var (
	flagCacheDir      string
	flagCacheMaxBytes int64
	flagTimeout       time.Duration
	flagLenient       bool
	flagCheck         bool
	flagDiagJSON      bool
	flagMaxBoxes      int64
	flagRepeat        int
)

// gcStart is the collector snapshot at process start; -stats prints the
// delta so a -repeat loop's allocation behaviour is visible. iterNs
// collects the per-iteration wall clocks of a -repeat run.
var (
	gcStart prof.GCStats
	iterNs  []int64
)

func recordIter(d time.Duration) {
	fmt.Fprintf(os.Stderr, "hext: iter %d: %v\n", len(iterNs), d)
	iterNs = append(iterNs, d.Nanoseconds())
}

func hextOpts() hext.Options {
	return hext.Options{
		CacheDir:      flagCacheDir,
		CacheMaxBytes: flagCacheMaxBytes,
		Lenient:       flagLenient,
		Limits:        guard.Limits{MaxBoxes: flagMaxBoxes},
	}
}

func main() {
	var (
		out     = flag.String("o", "", "write output to this file (default stdout)")
		hier    = flag.Bool("hier", false, "emit the hierarchical wirelist instead of the flat one")
		stats   = flag.Bool("stats", false, "print summary statistics instead of a wirelist")
		table41 = flag.Bool("table41", false, "reproduce HEXT Table 4-1 on ideal square arrays")
		table51 = flag.Bool("table51", false, "reproduce HEXT Table 5-1 on the synthetic chips")
		table52 = flag.Bool("table52", false, "reproduce HEXT Table 5-2 (compose-time analysis)")
		scale   = flag.Float64("scale", 1.0, "chip scale factor for the table harnesses")
		maxN    = flag.Int("maxcells", 65536, "largest array size for -table41")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.StringVar(&flagCacheDir, "cache-dir", "", "persistent extraction cache directory (shared across runs and processes; empty: disabled)")
	flag.Int64Var(&flagCacheMaxBytes, "cache-max-bytes", 0, "size cap for -cache-dir with LRU eviction (0: default 256 MiB, negative: uncapped)")
	flag.DurationVar(&flagTimeout, "timeout", 0, "abort the extraction after this wall-clock duration (e.g. 30s; 0: no limit)")
	flag.BoolVar(&flagLenient, "lenient", false, "recover from malformed CIF: record located diagnostics, resynchronise, extract the salvageable geometry")
	flag.BoolVar(&flagCheck, "check", false, "run the static electrical-rule checker on the extracted netlist")
	flag.BoolVar(&flagDiagJSON, "diag-json", false, "emit diagnostics as a JSON report on stdout (the wirelist then requires -o)")
	flag.Int64Var(&flagMaxBoxes, "max-boxes", 0, "fail the extraction after this many geometry items (0: unlimited)")
	flag.IntVar(&flagRepeat, "repeat", 1, "extract the design this many times through one warm Session, printing per-iteration timings to stderr")
	cacheVerify := flag.Bool("cache-verify", false, "verify every entry in the -cache-dir store (quarantining damage) and exit 5 if any is corrupt")
	flag.Parse()
	gcStart = prof.CaptureGC()

	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stop()

	switch {
	case *cacheVerify:
		runCacheVerify(flagCacheDir)
	case *table41:
		runTable41(*maxN)
	case *table51:
		runTable51(*scale)
	case *table52:
		runTable52(*scale)
	default:
		runExtract(flag.Arg(0), *out, *hier, *stats)
	}
}

func fatal(err error) {
	cli.Fatal("hext", err)
}

// runCacheVerify scans a persistent cache directory: every entry is
// read and verified (header, embedded key, checksum, file-name
// binding), damage is quarantined, and the process exits with the
// corruption code when any entry failed — the ops-side integrity
// check for a shared daemon cache.
func runCacheVerify(dir string) {
	if dir == "" {
		fatal(fmt.Errorf("-cache-verify requires -cache-dir"))
	}
	s, err := store.Open(dir, store.Options{MaxBytes: flagCacheMaxBytes})
	if err != nil {
		fatal(err)
	}
	errs := s.VerifyAll()
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "hext:", e)
	}
	entries, bytes := s.Stats()
	fmt.Printf("cache %s: %d entries ok, %d corrupt (quarantined), %d bytes\n",
		dir, entries, len(errs), bytes)
	if len(errs) > 0 {
		// Every failure from VerifyAll is corruption or unreadable I/O;
		// classify through the shared taxonomy off the first error.
		os.Exit(cli.ExitCodeFor(errs[0]))
	}
}

func runExtract(in, out string, hier, stats bool) {
	r := os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	var ctx context.Context
	if flagTimeout > 0 {
		tctx, cancel := context.WithTimeout(context.Background(), flagTimeout)
		defer cancel()
		ctx = tctx
	}
	hopt := hextOpts()
	var res *hext.Result
	var err error
	if flagRepeat > 1 {
		// Parse once, then re-extract through one warm Session: the memo,
		// content cache and pooled sweep scratch persist, so every
		// iteration after the first measures the warm re-extraction path.
		t0 := time.Now()
		f, perr := cif.ParseReaderOpts(r, cif.ParseOptions{Limits: hopt.Limits, Lenient: hopt.Lenient, Diag: hopt.Diag})
		if perr != nil {
			fatal(perr)
		}
		parse := time.Since(t0)
		s := hext.NewSession(hopt)
		for i := 0; i < flagRepeat; i++ {
			it0 := time.Now()
			res, err = s.ExtractContext(ctx, f)
			if err != nil {
				fatal(err)
			}
			recordIter(time.Since(it0))
		}
		res.Timing.Parse = parse
	} else if res, err = hext.ReaderContext(ctx, r, hopt); err != nil {
		fatal(err)
	}
	if flagCheck {
		res.Diagnostics.AddAll(check.Run(res.Netlist, check.Options{}))
		res.Diagnostics.Sort()
	}
	// The JSON report on stdout under -diag-json, else the text
	// rendering on stderr when there are findings or -lenient or -check
	// asks for the summary.
	if err := cli.RenderDiagnostics(in, &res.Diagnostics, flagDiagJSON, flagLenient || flagCheck, os.Stdout, os.Stderr); err != nil {
		fatal(err)
	}
	if stats {
		c := res.Counters
		fmt.Printf("%s\n", res.Netlist.Stats())
		fmt.Printf("uniqueWindows=%d memoHits=%d flatCalls=%d composeCalls=%d\n",
			c.UniqueWindows, c.MemoHits, c.FlatCalls, c.ComposeCalls)
		fmt.Printf("leafSweeps=%d cacheHits=%d cacheMisses=%d\n",
			c.LeafSweeps, c.CacheHits, c.CacheMisses)
		fmt.Printf("sessionHits=%d diskHits=%d diskMisses=%d diskBytes=%d diskErrors=%d diskPutErrors=%d\n",
			c.SessionHits, c.DiskHits, c.DiskMisses, c.DiskBytes, c.DiskErrors, c.DiskPutErrors)
		fmt.Printf("phases: %v\n", res.Timing)
		if rss := prof.PeakRSSBytes(); rss > 0 {
			fmt.Printf("peakRSS=%d bytes (%.1f MiB)\n", rss, float64(rss)/(1<<20))
		}
		gc := prof.CaptureGC().Delta(gcStart)
		fmt.Printf("gc: cycles=%d pauseTotal=%v alloc=%d bytes heapInuse=%d bytes\n",
			gc.NumGC, time.Duration(gc.PauseTotalNs), gc.TotalAlloc, gc.HeapInuse)
		os.Exit(cli.Exit(&res.Diagnostics))
	}
	w := os.Stdout
	if out != "" {
		fo, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer fo.Close()
		w = fo
	}
	if !(flagDiagJSON && out == "") {
		// With -diag-json the JSON report owns stdout; the wirelist is
		// written only when -o directs it elsewhere.
		if hier {
			if err := res.WriteHierarchical(w); err != nil {
				fatal(err)
			}
		} else if err := wirelist.Write(w, res.Netlist, wirelist.Options{}); err != nil {
			fatal(err)
		}
	}
	if code := cli.Exit(&res.Diagnostics); code != cli.ExitOK {
		os.Exit(code)
	}
}

// runTable41 reproduces HEXT Table 4-1: the ideal N-cell square array.
// The paper's columns: HEXT total, HEXT−k (k = the cost of extracting
// one cell), and the flat extractor. HEXT extraction time here
// excludes flattening (the paper's wirelist is hierarchical; the
// flatten column is shown separately).
func runTable41(maxN int) {
	fmt.Printf("HEXT Table 4-1: ideal square arrays (%s)\n\n", cli.HostLine())

	// k: the cost of extracting a single cell.
	single := gen.SquareArray(1)
	k := hextExtractTime(single.File)

	fmt.Printf("%10s %14s %14s %14s %14s %8s\n",
		"N cells", "HEXT", "HEXT-k", "flat (ACE)", "flatten", "uniqWin")
	for n := 1024; n <= maxN; n *= 4 {
		w := gen.SquareArray(n)

		res, err := hext.Extract(w.File, hext.Options{})
		if err != nil {
			fatal(err)
		}
		hextT := res.Timing.FrontEnd + res.Timing.BackEnd()
		flattenT := res.Timing.Flatten
		uniq := res.Counters.UniqueWindows
		devs := len(res.Netlist.Devices)

		// Drop the window DAG before timing the flat extractor, so the
		// measurement is not distorted by collector work over HEXT's
		// retained memory.
		res = nil
		runtime.GC()

		t0 := time.Now()
		fres, err := extract.File(w.File, extract.Options{})
		if err != nil {
			fatal(err)
		}
		flatT := time.Since(t0)
		if len(fres.Netlist.Devices) != devs {
			fmt.Fprintf(os.Stderr, "hext: warning: extractors disagree at n=%d\n", n)
		}
		fres = nil
		runtime.GC()

		hk := hextT - k
		if hk < 0 {
			hk = 0
		}
		fmt.Printf("%10d %14s %14s %14s %14s %8d\n",
			n, roundU(hextT), roundU(hk), roundU(flatT), roundU(flattenT), uniq)
	}
	fmt.Printf("\nk (one cell) = %s.\n", roundU(k))
	fmt.Printf("Paper: HEXT-k doubles per 4x cells (O(sqrt N)); flat grows 4x (O(N)).\n")
}

// runTable51 reproduces HEXT Table 5-1: per chip, HEXT front-end,
// back-end and total versus flat ACE. As in -table41, the HEXT total
// excludes flattening (the paper's wirelist is hierarchical); the
// flatten column is what the flat netlist costs on top.
func runTable51(scale float64) {
	fmt.Printf("HEXT Table 5-1 (synthetic stand-in chips, scale %.2f, %s)\n\n", scale, cli.HostLine())
	fmt.Printf("%-10s %9s %12s %12s %12s %12s %12s\n",
		"chip", "devices", "front-end", "back-end", "HEXT total", "flatten", "ACE flat")
	for _, name := range []string{"cherry", "dchip", "schip2", "testram", "psc", "riscb"} {
		c, _ := gen.ChipByName(name)
		w := c.Build(scale)

		res, err := hext.Extract(w.File, hext.Options{})
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		if _, err := extract.File(w.File, extract.Options{}); err != nil {
			fatal(err)
		}
		flatT := time.Since(t0)

		fe := res.Timing.FrontEnd
		be := res.Timing.BackEnd()
		fmt.Printf("%-10s %9d %12s %12s %12s %12s %12s\n",
			name, len(res.Netlist.Devices), roundU(fe), roundU(be), roundU(fe+be),
			roundU(res.Timing.Flatten), roundU(flatT))
	}
	fmt.Printf("\nPaper: testram 16x faster than flat; schip2/psc slower than flat (compose-bound).\n")
}

// runTable52 reproduces HEXT Table 5-2: calls to the flat extractor,
// calls to compose, and the percentage of back-end time spent
// composing.
func runTable52(scale float64) {
	fmt.Printf("HEXT Table 5-2 (synthetic stand-in chips, scale %.2f, %s)\n\n", scale, cli.HostLine())
	fmt.Printf("%-10s %9s %10s %10s %12s %12s %9s\n",
		"chip", "devices", "flatCalls", "composes", "back-end", "compose", "compose%")
	for _, name := range []string{"cherry", "dchip", "schip2", "testram", "psc", "riscb"} {
		c, _ := gen.ChipByName(name)
		w := c.Build(scale)
		res, err := hext.Extract(w.File, hext.Options{})
		if err != nil {
			fatal(err)
		}
		be := res.Timing.BackEnd()
		pct := 0.0
		if be > 0 {
			pct = 100 * res.Timing.Compose.Seconds() / be.Seconds()
		}
		fmt.Printf("%-10s %9d %10d %10d %12s %12s %8.0f%%\n",
			name, len(res.Netlist.Devices),
			res.Counters.FlatCalls, res.Counters.ComposeCalls,
			roundU(be), roundU(res.Timing.Compose), pct)
	}
	fmt.Printf("\nPaper: 47-94%% of back-end time in compose (average 72%%).\n")
}

func hextExtractTime(f *cif.File) time.Duration {
	res, err := hext.Extract(f, hext.Options{})
	if err != nil {
		fatal(err)
	}
	return res.Timing.FrontEnd + res.Timing.BackEnd()
}

func roundU(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }
