package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ace/internal/check"
	"ace/internal/cli"
	"ace/internal/extract"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/prof"
	"ace/internal/tile"
	"ace/internal/wirelist"
)

// flagTiles selects the out-of-core source: a packed tile file (see
// internal/tile and cmd/cifpack) replaces the CIF input. flagWindow
// restricts a tiled extraction to one rectangle; flagStatsJSON writes
// a machine-readable run summary for harnesses like bench/.
var (
	flagTiles     string
	flagWindow    string
	flagStatsJSON string
)

// runStats is the -stats-json payload, one schema for every
// extraction path: everything a parent harness needs to judge one run
// — wall clock, peak RSS, and (for tiled sources) how much of the file
// was actually touched.
type runStats struct {
	Source       string `json:"source"` // "cif", "hier" or "tiles"
	GOMEMLIMIT   string `json:"gomemlimit,omitempty"`
	ElapsedNs    int64  `json:"elapsed_ns"`
	PeakRSSBytes int64  `json:"peak_rss_bytes"`
	Boxes        int    `json:"boxes"` // boxes swept; 0 on "hier", which sweeps windows, not the flattened chip
	Devices      int    `json:"devices"`
	Nets         int    `json:"nets"`
	BytesRead    int64  `json:"bytes_read,omitempty"`
	TilesDecoded int64  `json:"tiles_decoded,omitempty"`
	TilesTotal   int64  `json:"tiles_total,omitempty"`
	FileBytes    int64  `json:"file_bytes,omitempty"`

	// Collector activity over the whole run (delta since process
	// start), plus the per-iteration wall clocks of a -repeat loop.
	GC     prof.GCStats `json:"gc"`
	Repeat int          `json:"repeat,omitempty"`
	IterNs []int64      `json:"iter_ns,omitempty"`
}

// flatSummary is the run-specific part of a flat (CIF or tiled) run's
// -stats-json payload.
func flatSummary(source string, res *extract.Result) runStats {
	s := runStats{
		Source:  source,
		Boxes:   res.Counters.BoxesIn,
		Devices: len(res.Netlist.Devices),
		Nets:    len(res.Netlist.Nets),
	}
	if t := res.Tile; t != nil {
		s.BytesRead = t.BytesRead
		s.TilesDecoded = t.TilesDecoded
		s.TilesTotal = t.TilesTotal
		s.FileBytes = t.FileBytes
	}
	return s
}

// writeRunStats emits the -stats-json file: s is the run's summary,
// and the process-wide fields (flags, peak RSS, collector activity,
// -repeat timings) are filled in here. Peak RSS is sampled after the
// wirelist has been written, so the number covers the whole run
// including output.
func writeRunStats(s runStats, elapsed time.Duration) {
	if flagStatsJSON == "" {
		return
	}
	s.GOMEMLIMIT = os.Getenv("GOMEMLIMIT")
	s.ElapsedNs = elapsed.Nanoseconds()
	s.PeakRSSBytes = prof.PeakRSSBytes()
	s.GC = prof.CaptureGC().Delta(gcStart)
	if flagRepeat > 1 {
		s.Repeat = flagRepeat
		s.IterNs = iterNs
	}
	f, err := os.Create(flagStatsJSON)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		fatal(err)
	}
}

// printResourceStats appends the resource lines to a -stats dump: tile
// I/O (when the source was a tile file) and peak RSS.
func printResourceStats(t *extract.TileIO) {
	if t != nil {
		fmt.Printf("tiles: decoded=%d/%d bytesRead=%d fileBytes=%d\n",
			t.TilesDecoded, t.TilesTotal, t.BytesRead, t.FileBytes)
	}
	if rss := prof.PeakRSSBytes(); rss > 0 {
		fmt.Printf("peakRSS=%d bytes (%.1f MiB)\n", rss, float64(rss)/(1<<20))
	}
	gc := prof.CaptureGC().Delta(gcStart)
	fmt.Printf("gc: cycles=%d pauseTotal=%v alloc=%d bytes heapInuse=%d bytes\n",
		gc.NumGC, time.Duration(gc.PauseTotalNs), gc.TotalAlloc, gc.HeapInuse)
}

// parseWindow parses the -window rectangle, "x0,y0,x1,y1" in
// centimicrons.
func parseWindow(s string) (geom.Rect, error) {
	var r geom.Rect
	if _, err := fmt.Sscanf(s, "%d,%d,%d,%d", &r.XMin, &r.YMin, &r.XMax, &r.YMax); err != nil {
		return r, fmt.Errorf("-window %q: want x0,y0,x1,y1 (%v)", s, err)
	}
	if r.XMin >= r.XMax || r.YMin >= r.YMax {
		return r, fmt.Errorf("-window %q: empty rectangle", s)
	}
	return r, nil
}

// runExtractTiles is runExtract for a packed tile source: same
// wirelist, same diagnostics and exit taxonomy, but boxes stream off
// the tile file's whole-chip (or window) iterators, so peak memory is
// the tile working set rather than the chip.
func runExtractTiles(out string, geometry, stats, profile bool) {
	if flagHier || flagCacheDir != "" {
		fatal(fmt.Errorf("-tiles is a flat-sweep source and does not combine with -hier or -cache-dir; use -window for windowed queries"))
	}
	if flagLenient {
		fatal(fmt.Errorf("-lenient applies to CIF parsing; a tile file is either intact or corrupt"))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("-tiles %s replaces the CIF input; unexpected argument %q", flagTiles, flag.Arg(0)))
	}
	r, err := tile.Open(flagTiles)
	if err != nil {
		fatal(err)
	}
	defer r.Close()

	ctx, cancel := extractCtx()
	defer cancel()
	opt := extract.Options{
		KeepGeometry: geometry,
		Limits:       guard.Limits{MaxBoxes: flagMaxBoxes},
	}
	t0 := time.Now()
	var res *extract.Result
	eng := extract.NewEngine()
	once := func() {
		if flagWindow != "" {
			rect, werr := parseWindow(flagWindow)
			if werr != nil {
				fatal(werr)
			}
			res, err = eng.TileWindow(ctx, r, rect, opt)
		} else {
			res, err = eng.Tiles(ctx, r, opt)
		}
		if err != nil {
			fatal(err)
		}
	}
	if flagRepeat > 1 {
		for i := 0; i < flagRepeat; i++ {
			it0 := time.Now()
			once()
			recordIter(time.Since(it0))
		}
	} else {
		once()
	}
	elapsed := time.Since(t0)

	if flagCheck {
		res.Diagnostics.AddAll(check.Run(res.Netlist, check.Options{}))
		res.Diagnostics.Sort()
	}
	renderDiagnostics(flagTiles, &res.Diagnostics)
	res.Netlist.Name = flagTiles
	if flagName != "" {
		res.Netlist.Name = flagName
	}

	if stats || profile {
		fmt.Printf("%s\n", res.Netlist.Stats())
		fmt.Printf("boxes=%d stops=%d maxActive=%d\n",
			res.Counters.BoxesIn, res.Counters.Stops, res.Counters.MaxActive)
		printPhases(res.Phases)
		printResourceStats(res.Tile)
		if profile {
			writeRunStats(flatSummary("tiles", res), elapsed)
			os.Exit(cli.Exit(&res.Diagnostics))
		}
	}

	if !stats && !(flagDiagJSON && out == "") {
		writeWirelist(out, res.Netlist, wirelist.Options{Geometry: geometry})
	}
	writeRunStats(flatSummary("tiles", res), elapsed)
	if code := cli.Exit(&res.Diagnostics); code != cli.ExitOK {
		os.Exit(code)
	}
}
