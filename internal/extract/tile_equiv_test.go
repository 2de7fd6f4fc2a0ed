package extract

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"ace/internal/cif"
	"ace/internal/diag"
	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/scan"
	"ace/internal/tile"
	"ace/internal/wirelist"
)

// equivDesigns is the equivalence matrices' design set: every corpus
// file, every generated benchmark chip, and two synthetic stress
// layouts.
func equivDesigns(t *testing.T) map[string]*cif.File {
	t.Helper()
	out := map[string]*cif.File{}
	for _, c := range corpus {
		out[c.file] = readCorpus(t, c.file)
	}
	for _, w := range gen.BenchChips() {
		out[w.Name] = w.File
	}
	out["mesh"] = gen.Mesh(5).File
	out["statistical"] = gen.Statistical(1500, 11).File
	return out
}

func formatWirelist(t *testing.T, name string, f *cif.File, opt Options) string {
	t.Helper()
	res, err := File(f, opt)
	if err != nil {
		t.Fatalf("%s %+v: %v", name, opt, err)
	}
	return wirelist.Format(res.Netlist, wirelist.Options{Geometry: opt.KeepGeometry})
}

// diffPos returns the first byte offset at which a and b differ.
func diffPos(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// packFile streams a parsed design through the lazy front end into an
// in-memory tile file, exactly as cifpack does.
func packFile(t *testing.T, f *cif.File, cols, rows int) *tile.Reader {
	t.Helper()
	raw := packRaw(t, f, cols, rows)
	r, err := tile.NewReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

// packRaw is packFile's encoded file.
func packRaw(t *testing.T, f *cif.File, cols, rows int) []byte {
	t.Helper()
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	bbox := stream.BBox()
	labels := stream.Labels()
	var buf bytes.Buffer
	w, err := tile.NewWriter(&buf, tile.NewGrid(bbox, cols, rows))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, l := range labels {
		w.AddLabel(l)
	}
	for {
		b, ok := stream.Next()
		if !ok {
			break
		}
		if err := w.Add(b); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func formatTiled(t *testing.T, name string, r *tile.Reader, opt Options) string {
	t.Helper()
	res, err := Tiles(r, opt)
	if err != nil {
		t.Fatalf("%s %+v: %v", name, opt, err)
	}
	return wirelist.Format(res.Netlist, wirelist.Options{Geometry: opt.KeepGeometry})
}

// TestTiledWirelistByteIdentical is the out-of-core acceptance matrix:
// extracting from the packed tile file must reproduce the CIF
// pipeline's wirelist byte for byte, and its sweep diagnostics, for every
// corpus file and generated chip, across tile grid resolutions
// (including degenerate 1×1 and a grid much finer than the designs).
func TestTiledWirelistByteIdentical(t *testing.T) {
	grids := [][2]int{{1, 1}, {4, 4}, {16, 16}}
	for name, f := range equivDesigns(t) {
		serial, err := File(f, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := wirelist.Format(serial.Netlist, wirelist.Options{})
		// The tile file carries no parser findings, only the sweep's.
		var wantDiags []diag.Diagnostic
		for _, d := range serial.Diagnostics.All() {
			if d.Stage != guard.StageParse {
				wantDiags = append(wantDiags, d)
			}
		}
		for _, g := range grids {
			r := packFile(t, f, g[0], g[1])
			res, err := Tiles(r, Options{})
			if err != nil {
				t.Fatalf("%s grid=%v: %v", name, g, err)
			}
			if got := res.Diagnostics.All(); !slices.Equal(got, wantDiags) {
				t.Fatalf("%s grid=%v: diagnostics %v, want the CIF run's %v", name, g, got, wantDiags)
			}
			got := wirelist.Format(res.Netlist, wirelist.Options{})
			if got != want {
				i := diffPos(want, got)
				lo := i - 60
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("%s grid=%v: wirelist differs at byte %d\nin-RAM: …%q\ntiled:  …%q",
					name, g, i, want[lo:min(i+60, len(want))], got[lo:min(i+60, len(got))])
			}
		}
	}
}

// TestTiledWirelistGeometry repeats a slice of the matrix with
// geometry recording on, pinning the tiled source's delivery order at
// the finest level the output can express. On the 8×8 grid, 40 of
// dchip's 485 boxes and 92 of psc's 2,690 at scale 0.02 reach below
// their tile row; each is still listed whole, as the CIF pipeline
// lists it.
func TestTiledWirelistGeometry(t *testing.T) {
	type design struct {
		name string
		f    *cif.File
	}
	var designs []design
	for _, name := range []string{"polygons.cif", "labels.cif", "rotated.cif"} {
		designs = append(designs, design{name, readCorpus(t, name)})
	}
	for _, name := range []string{"dchip", "psc"} {
		c, ok := gen.ChipByName(name)
		if !ok {
			t.Fatalf("no %s chip", name)
		}
		designs = append(designs, design{name, c.Build(0.02).File})
	}
	for _, d := range designs {
		want := formatWirelist(t, d.name, d.f, Options{KeepGeometry: true})
		r := packFile(t, d.f, 8, 8)
		got := formatTiled(t, d.name, r, Options{KeepGeometry: true})
		if got != want {
			i := diffPos(want, got)
			t.Fatalf("%s: geometry wirelist differs at byte %d", d.name, i)
		}
	}
}

// TestTileWindowMatchesClippedSweep checks the windowed read against a
// reference built the straightforward way: drain the whole design,
// clip every box to the window by hand, sweep the clipped list.
func TestTileWindowMatchesClippedSweep(t *testing.T) {
	for _, name := range []string{"wires.cif", "polygons.cif", "labels.cif"} {
		f := readCorpus(t, name)
		stream, err := frontend.New(f, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		labels := stream.Labels()
		boxes := stream.Drain()
		bb := stream.BBox()
		windows := []geom.Rect{
			bb, // whole chip
			{XMin: bb.XMin, YMin: (bb.YMin + bb.YMax) / 2, XMax: (bb.XMin + bb.XMax) / 2, YMax: bb.YMax},
			{XMin: bb.XMin + bb.W()/4, YMin: bb.YMin + bb.H()/4, XMax: bb.XMax - bb.W()/4, YMax: bb.YMax - bb.H()/4},
		}
		r := packFile(t, f, 8, 8)
		for _, win := range windows {
			var clipped []frontend.Box
			for _, b := range boxes {
				if !b.Rect.Overlaps(win) {
					continue
				}
				clipped = append(clipped, frontend.Box{Layer: b.Layer, Rect: b.Rect.Intersect(win)})
			}
			scan.SortTopDown(clipped)
			var winLabels []frontend.Label
			for _, l := range labels {
				if win.Contains(l.At) {
					winLabels = append(winLabels, l)
				}
			}
			sres, err := scan.Sweep(scan.NewBoxSource(clipped), scan.Options{Labels: winLabels})
			if err != nil {
				t.Fatalf("%s reference sweep: %v", name, err)
			}
			want := wirelist.Format(sres.Netlist, wirelist.Options{})

			res, err := TileWindow(context.Background(), r, win, Options{})
			if err != nil {
				t.Fatalf("%s window %v: %v", name, win, err)
			}
			got := wirelist.Format(res.Netlist, wirelist.Options{})
			if got != want {
				t.Fatalf("%s window %v: wirelist differs at byte %d", name, win, diffPos(want, got))
			}
			if res.Tile == nil || res.Tile.TilesDecoded == 0 && len(clipped) > 0 {
				t.Fatalf("%s window %v: missing tile I/O counters: %+v", name, win, res.Tile)
			}
		}
	}
}

// TestTiledCorruptFailsSoft: extraction from a damaged file must
// surface the tile error, not a truncated-but-plausible wirelist.
func TestTiledCorruptFailsSoft(t *testing.T) {
	f := readCorpus(t, "wires.cif")
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := tile.NewWriter(&buf, tile.NewGrid(stream.BBox(), 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, ok := stream.Next()
		if !ok {
			break
		}
		if err := w.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a payload byte (inside the tile region, past the header).
	mut := append([]byte(nil), raw...)
	mut[len(mut)/4] ^= 0x40
	r, err := tile.NewReader(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		// Damage landed in the index: typed failure at open is fine too.
		return
	}
	if _, err := Tiles(r, Options{}); err == nil {
		t.Fatalf("corrupt tile file extracted without error")
	}
}
