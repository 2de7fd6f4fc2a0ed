// Command partlist is the run-encoded raster-scan extractor that
// preceded ACE at CMU — kept as a working baseline. CIF in, wirelist
// out. All geometry must be aligned to the raster grid.
package main

import (
	"flag"
	"fmt"
	"os"

	"ace/internal/cif"
	"ace/internal/cli"
	"ace/internal/diag"
	"ace/internal/frontend"
	"ace/internal/raster"
	"ace/internal/wirelist"
)

func main() {
	var (
		out   = flag.String("o", "", "write the wirelist to this file (default stdout)")
		grid  = flag.Int64("grid", 200, "raster grid in centimicrons")
		stats = flag.Bool("stats", false, "print summary statistics instead of the wirelist")
	)
	flag.Parse()

	r := os.Stdin
	if flag.Arg(0) != "" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	f, err := cif.Parse(r)
	if err != nil {
		fatal(err)
	}
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		fatal(err)
	}
	boxes := stream.Drain()
	res, err := raster.ExtractBoxes(boxes, raster.Options{Grid: *grid, Labels: stream.Labels()})
	if err != nil {
		fatal(err)
	}
	// The parser's findings and the raster's, on stderr when there are
	// any.
	var ds diag.Set
	ds.Merge(&f.Diagnostics)
	ds.AddAll(res.Diagnostics)
	ds.Sort()
	if err := cli.RenderDiagnostics(flag.Arg(0), &ds, false, false, nil, os.Stderr); err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Printf("%s\n", res.Netlist.Stats())
		fmt.Printf("grid=%d rows=%d cols=%d squares=%d\n",
			*grid, res.Counters.Rows, res.Counters.Cols, res.Counters.Squares)
		return
	}
	w := os.Stdout
	if *out != "" {
		fo, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer fo.Close()
		w = fo
	}
	if err := wirelist.Write(w, res.Netlist, wirelist.Options{}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partlist:", err)
	os.Exit(1)
}
