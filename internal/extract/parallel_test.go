package extract

import (
	"testing"

	"ace/internal/cif"
	"ace/internal/gen"
	"ace/internal/netlist"
	"ace/internal/wirelist"
)

// equivSerialBands packs f into an in-memory tile file and requires the
// banded tile sweep at every workers count to reproduce the serial CIF
// wirelist byte for byte, with as many sweep warnings. Every workers
// count must actually form two or more bands: a design too small to
// band would only repeat the serial tile sweep.
func equivSerialBands(t *testing.T, name string, f *cif.File, workers ...int) {
	t.Helper()
	serial, err := File(f, Options{})
	if err != nil {
		t.Fatalf("%s: serial: %v", name, err)
	}
	want := wirelist.Format(serial.Netlist, wirelist.Options{})
	r := packFile(t, f, 8, 8)
	for _, w := range workers {
		cuts, err := tileCuts(r, w)
		if err != nil {
			t.Fatalf("%s: workers=%d: cuts: %v", name, w, err)
		}
		if len(cuts) == 0 {
			t.Fatalf("%s: workers=%d forms no bands from %d boxes; it would sweep serially", name, w, r.NumBoxes())
		}
		res, err := Tiles(r, Options{Workers: w})
		if err != nil {
			t.Fatalf("%s: workers=%d: %v", name, w, err)
		}
		if got := wirelist.Format(res.Netlist, wirelist.Options{}); got != want {
			t.Errorf("%s: workers=%d: wirelist differs from serial CIF at byte %d", name, w, diffPos(want, got))
		}
		// The tile file carries no parser warnings, only the sweep's.
		if got, want := len(res.Warnings), len(serial.Warnings)-len(f.Warnings); got != want {
			t.Errorf("%s: workers=%d: %d sweep warnings, want %d (%v vs %v)",
				name, w, got, want, res.Warnings, serial.Warnings)
		}
	}
}

// TestParallelCorpus: the corpus files large enough to band (two bands
// need scan.EffectiveBands' 128 boxes), tile bands ≡ serial CIF, across
// several worker counts. The smaller files sweep serially at any
// Workers; TestTiledWirelistByteIdentical covers them from tiles.
func TestParallelCorpus(t *testing.T) {
	for _, name := range []string{"wires.cif", "flash.cif"} {
		equivSerialBands(t, name, readCorpus(t, name), 2, 4, 8)
	}
}

// TestParallelChips: every synthetic chip at small scale, tile bands ≡
// serial CIF, across several worker counts. cherry is built at 0.05,
// because at 0.02 its 83 boxes are too few to band.
func TestParallelChips(t *testing.T) {
	for _, c := range gen.Chips {
		scale := 0.02
		if c.Name == "cherry" {
			scale = 0.05
		}
		w := c.Build(scale)
		equivSerialBands(t, w.Name, w.File, 2, 4, 8)
	}
}

// TestParallelInverterGolden: the banded path reproduces the paper's
// inverter exactly — same locations, names and device sizes — because
// band stitching preserves the serial builder semantics, not just
// isomorphism.
func TestParallelInverterGolden(t *testing.T) {
	// InverterRow makes the design tall enough to cut into real bands
	// even under the small-design serial fallback.
	f := gen.InverterRow(64)
	want := formatWirelist(t, "inverter-row", f, Options{})
	r := packFile(t, f, 4, 4)
	if got := formatTiled(t, "inverter-row", r, Options{Workers: 4}); got != want {
		t.Fatalf("banded wirelist differs from serial at byte %d", diffPos(want, got))
	}
}

// TestParallelKeepGeometry: geometry keeping survives the band split.
func TestParallelKeepGeometry(t *testing.T) {
	c, ok := gen.ChipByName("dchip")
	if !ok {
		t.Fatal("dchip missing")
	}
	w := c.Build(0.02)
	r := packFile(t, w.File, 8, 8)
	par, err := Tiles(r, Options{Workers: 4, KeepGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := File(w.File, Options{KeepGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	eq, reason := netlist.Equivalent(serial.Netlist, par.Netlist)
	if !eq {
		t.Fatal(reason)
	}
	nGeom := func(nl *netlist.Netlist) (nets, devs int) {
		for i := range nl.Nets {
			nets += len(nl.Nets[i].Geometry)
		}
		for i := range nl.Devices {
			devs += len(nl.Devices[i].Geometry)
		}
		return
	}
	sn, sd := nGeom(serial.Netlist)
	pn, pd := nGeom(par.Netlist)
	if pn == 0 || pd == 0 {
		t.Fatalf("parallel geometry missing: nets=%d devs=%d", pn, pd)
	}
	// Band boundaries may split rectangles, never drop area; counts can
	// only grow by at most one rect per seam crossing.
	if pn < sn || pd < sd {
		t.Errorf("parallel geometry lost rects: nets %d<%d or devs %d<%d", pn, sn, pd, sd)
	}
}

// TestWorkersDegenerate: absurd worker counts on a tiny tile file fall
// back gracefully.
func TestWorkersDegenerate(t *testing.T) {
	r := packFile(t, gen.Inverter(), 2, 2)
	for _, workers := range []int{1, 2, 1000} {
		res, err := Tiles(r, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Netlist.Devices) != 2 {
			t.Fatalf("workers=%d: devices=%d", workers, len(res.Netlist.Devices))
		}
	}
}
