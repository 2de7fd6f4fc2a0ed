// Command cifpack converts a CIF design into ACE's tiled binary
// format (see internal/tile): a spatially indexed, checksummed file
// that the extractor reads out-of-core, row by row or window by
// window, with memory bounded by the tile working set instead of the
// chip.
//
// The packer itself streams: the CIF parse holds only the hierarchy
// (symbol definitions, not the flattened chip), the lazy front end
// expands geometry in descending-top order, and the tile writer
// buffers a single tile row at a time. Packing a deep hierarchy
// therefore needs far less memory than the flattened box count
// suggests.
//
// Usage:
//
//	cifpack [-o design.actb] [-grid 64] design.cif
//	cifpack -info design.actb
//	cifpack -verify design.actb
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ace/internal/cif"
	"ace/internal/cli"
	"ace/internal/frontend"
	"ace/internal/guard"
	"ace/internal/tile"
	"ace/internal/vfs"
)

const prog = "cifpack"

func main() {
	var (
		out     = flag.String("o", "", "output tile file (default: input with .actb extension)")
		grid    = flag.Int("grid", tile.DefaultGrid, "tile grid resolution (grid×grid tiles)")
		gridW   = flag.Int("grid-cols", 0, "tile columns (overrides -grid)")
		gridH   = flag.Int("grid-rows", 0, "tile rows (overrides -grid)")
		mgrid   = flag.Int64("mgrid", 0, "manhattanisation grid in centimicrons (0 = default)")
		lenient = flag.Bool("lenient", false, "recover from malformed CIF, packing what parses")
		info    = flag.Bool("info", false, "print a tile file's index summary instead of packing")
		verify  = flag.Bool("verify", false, "decode and checksum every tile of a tile file")
		stats   = flag.Bool("stats", false, "print packing statistics")
		maxDep  = flag.Int("max-depth", 0, "hierarchy depth limit (0 = default)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] design.cif | %s -info|-verify design.actb\n", prog, prog)
		os.Exit(cli.ExitUsage)
	}
	in := flag.Arg(0)

	switch {
	case *info:
		if err := runInfo(in); err != nil {
			cli.Fatal(prog, err)
		}
	case *verify:
		if err := runVerify(in); err != nil {
			cli.Fatal(prog, err)
		}
	default:
		cols, rows := *grid, *grid
		if *gridW > 0 {
			cols = *gridW
		}
		if *gridH > 0 {
			rows = *gridH
		}
		dst := *out
		if dst == "" {
			dst = in + ".actb"
		}
		if err := runPack(in, dst, cols, rows, *mgrid, *lenient, *stats, *maxDep); err != nil {
			cli.Fatal(prog, err)
		}
	}
}

func runPack(in, out string, cols, rows int, mgrid int64, lenient, stats bool, maxDepth int) error {
	t0 := time.Now()
	// A pack killed mid-write leaves a pid-stamped temporary, never a
	// truncated .actb at the destination path; reclaim any such temps
	// from crashed packs before adding our own.
	vfs.SweepOrphans(vfs.OS, filepath.Dir(out))
	src, err := os.Open(in)
	if err != nil {
		return err
	}
	defer src.Close()
	limits := guard.Limits{MaxDepth: maxDepth}
	f, err := cif.ParseReaderOpts(bufio.NewReader(src), cif.ParseOptions{Lenient: lenient, Limits: limits})
	if err != nil {
		return err
	}
	stream, err := frontend.New(f, frontend.Options{Grid: mgrid, Lenient: lenient, Limits: limits})
	if err != nil {
		return err
	}
	// BBox walks the hierarchy without expanding it; Labels expands only
	// label-bearing subtrees. Both leave the box stream untouched.
	bbox := stream.BBox()
	labels := stream.Labels()

	// Pack into a temp in the destination directory and publish with
	// fsync + rename + directory fsync: readers (and a re-run after a
	// crash) see either the complete previous file or the complete new
	// one, never a partial pack.
	dst, err := vfs.NewAtomicFile(vfs.OS, out)
	if err != nil {
		return err
	}
	defer dst.Abort() // no-op once committed
	bw := bufio.NewWriterSize(dst, 1<<20)
	tw, err := tile.NewWriter(bw, tile.NewGrid(bbox, cols, rows))
	if err != nil {
		return err
	}
	for _, l := range labels {
		tw.AddLabel(l)
	}
	var nBoxes int64
	for {
		b, ok := stream.Next()
		if !ok {
			break
		}
		if err := tw.Add(b); err != nil {
			return err
		}
		nBoxes++
	}
	if err := tw.Close(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := dst.Commit(); err != nil {
		return err
	}
	if stats {
		fi, _ := os.Stat(out)
		var size int64
		if fi != nil {
			size = fi.Size()
		}
		fmt.Printf("packed     %s -> %s\n", in, out)
		fmt.Printf("boxes      %d\n", nBoxes)
		fmt.Printf("labels     %d\n", len(labels))
		fmt.Printf("grid       %dx%d tiles over %v\n", cols, rows, bbox)
		fmt.Printf("bytes      %d\n", size)
		fmt.Printf("elapsed    %v\n", time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

func runInfo(path string) error {
	r, err := tile.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	g := r.Grid()
	fmt.Printf("file       %s (%d bytes)\n", path, r.Size())
	fmt.Printf("bbox       %v\n", g.BBox)
	fmt.Printf("grid       %dx%d tiles of %dx%d\n", g.Cols, g.Rows, g.TileW, g.TileH)
	fmt.Printf("boxes      %d\n", r.NumBoxes())
	fmt.Printf("labels     %d\n", len(r.Labels()))
	fmt.Printf("tiles      %d non-empty of %d\n", r.NonEmptyTiles(), g.Cols*g.Rows)
	return nil
}

func runVerify(path string) error {
	r, err := tile.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	it := r.ReadBand(tile.WholeChip())
	var n int64
	var lastTop int64
	first := true
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		if !first && b.Rect.YMax > lastTop {
			return fmt.Errorf("%s: box %d out of descending-top order", path, n)
		}
		first, lastTop = false, b.Rect.YMax
		n++
	}
	if err := it.Err(); err != nil {
		return err
	}
	if n != r.NumBoxes() {
		return fmt.Errorf("%s: decoded %d boxes, index records %d", path, n, r.NumBoxes())
	}
	io := r.Counters()
	fmt.Printf("ok         %d boxes, %d tiles decoded, %d bytes read\n", n, io.TilesDecoded, io.BytesRead)
	return nil
}
