package hext

import (
	"slices"
	"strings"
	"testing"

	"ace/internal/cif"
	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/netlist"
)

func TestSessionIncrementalReextract(t *testing.T) {
	// Extract a memory array, then re-extract the identical design in
	// the same session: zero new flat extractions or composes.
	s := NewSession(Options{})
	w := gen.Memory(8, 8)
	first, err := s.Extract(w.File)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Extract(w.File)
	if err != nil {
		t.Fatal(err)
	}
	if second.Counters.FlatCalls != 0 || second.Counters.ComposeCalls != 0 {
		t.Fatalf("re-extract did work: %+v", second.Counters)
	}
	if eq, why := netlist.Equivalent(first.Netlist, second.Netlist); !eq {
		t.Fatalf("results differ: %s", why)
	}
}

func TestSessionIncrementalEdit(t *testing.T) {
	// Extract, then edit one cell of the design: only the windows on
	// the changed cell's path should be re-analysed.
	build := func(tweak bool) *gen.Workload {
		d := gen.NewDesign()
		cell := gen.GateCell(d, "ramCell", 1)
		odd := gen.GateCell(d, "oddCell", 2)
		row := d.Cell("row")
		for c := 0; c < 8; c++ {
			if tweak && c == 3 {
				row.CallAt(odd, int64(c)*gen.GateCellWidth*gen.Lambda, 0)
			} else {
				row.CallAt(cell, int64(c)*gen.GateCellWidth*gen.Lambda, 0)
			}
		}
		arr := d.Cell("arr")
		pitch := (gen.GateCellHeight(2) + 4) * gen.Lambda
		for r := 0; r < 8; r++ {
			arr.CallAt(row, 0, int64(r)*pitch)
		}
		d.CallTop(arr, geom.Identity)
		wl := gen.Workload{File: d.File()}
		return &wl
	}

	s := NewSession(Options{})
	if _, err := s.Extract(build(false).File); err != nil {
		t.Fatal(err)
	}

	// Edited design: one row cell swapped for a 2-input gate. Note the
	// row symbol repeats 8 times, so the whole row re-extracts but the
	// 7 unchanged cells inside it still hit the memo.
	res, err := s.Extract(build(true).File)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Extract(build(true).File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eq, why := netlist.Equivalent(res.Netlist, fresh.Netlist); !eq {
		t.Fatalf("incremental result differs from fresh: %s", why)
	}
	if res.Counters.UniqueWindows >= fresh.Counters.UniqueWindows {
		t.Fatalf("incremental run did not reuse prior windows: %d vs fresh %d",
			res.Counters.UniqueWindows, fresh.Counters.UniqueWindows)
	}
	aceRes, err := extract.File(build(true).File, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eq, why := netlist.Equivalent(res.Netlist, aceRes.Netlist); !eq {
		t.Fatalf("incremental result differs from ACE: %s", why)
	}
}

func TestSessionSharedAcrossDesigns(t *testing.T) {
	// Two different chips sharing the same library cell benefit from
	// each other's windows.
	s := NewSession(Options{})
	if _, err := s.Extract(gen.Memory(4, 4).File); err != nil {
		t.Fatal(err)
	}
	before := s.MemoSize()
	res, err := s.Extract(gen.Memory(4, 8).File)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Extract(gen.Memory(4, 8).File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.FlatCalls >= fresh.Counters.FlatCalls {
		t.Fatalf("no cross-design reuse: %d vs fresh %d",
			res.Counters.FlatCalls, fresh.Counters.FlatCalls)
	}
	if s.MemoSize() <= before {
		t.Fatal("memo did not grow")
	}
	if eq, why := netlist.Equivalent(res.Netlist, fresh.Netlist); !eq {
		t.Fatalf("session result differs: %s", why)
	}
}

func TestFractureMinCut(t *testing.T) {
	// Both strategies must produce the same circuit; min-cut must not
	// split more geometry than balanced does on a routed design.
	w := gen.Irregular(15, 9)
	bal, err := Extract(w.File, Options{Fracture: FractureBalanced})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Extract(w.File, Options{Fracture: FractureMinCut})
	if err != nil {
		t.Fatal(err)
	}
	if eq, why := netlist.Equivalent(bal.Netlist, mc.Netlist); !eq {
		t.Fatalf("fracture strategy changed the circuit: %s", why)
	}
	if len(mc.Netlist.Devices) != w.WantDevices {
		t.Fatalf("devices %d, want %d", len(mc.Netlist.Devices), w.WantDevices)
	}
	// Also exercise min-cut on pure geometry splitting (mesh).
	m := gen.Mesh(5)
	mm, err := Extract(m.File, Options{Fracture: FractureMinCut, MaxLeafItems: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.Netlist.Devices) != m.WantDevices {
		t.Fatalf("mesh devices %d, want %d", len(mm.Netlist.Devices), m.WantDevices)
	}
}

func TestDisableMemo(t *testing.T) {
	w := gen.Memory(4, 4)
	on, err := Extract(w.File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Extract(w.File, Options{DisableMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Counters.MemoHits != 0 {
		t.Fatalf("memo hits with memo disabled: %d", off.Counters.MemoHits)
	}
	if off.Counters.FlatCalls <= on.Counters.FlatCalls {
		t.Fatalf("disabling the memo should increase flat calls: %d vs %d",
			off.Counters.FlatCalls, on.Counters.FlatCalls)
	}
	if eq, why := netlist.Equivalent(on.Netlist, off.Netlist); !eq {
		t.Fatalf("memo changed the circuit: %s", why)
	}
	// 16 identical cells: without the memo, at least 16 flat calls.
	if off.Counters.FlatCalls < 16 {
		t.Fatalf("flat calls %d with memo off", off.Counters.FlatCalls)
	}
}

// TestSessionFindingsStable: a leaf window's findings belong to its
// result, so every run of one design reports them. A warm Session run,
// answered from the memo without a sweep, and a disk hit report what a
// cold run does.
func TestSessionFindingsStable(t *testing.T) {
	f, err := cif.ParseString("DS 1; L ND; B 400 2000 0 0; L NP; B 2000 400 0 0; 94 GHOST 5000 5000 NM; DF;\n" +
		"C 1;\nC 1 T 20000 0;\nE\n")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Extract(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Diagnostics.All()
	if len(want) == 0 {
		t.Fatal("the cold run reports no finding")
	}
	for _, d := range want {
		if d.Code != "unmatched-label" || d.Stage != guard.StageSweep || !strings.Contains(d.Message, `"GHOST"`) {
			t.Fatalf("cold run: unexpected finding %v", d)
		}
	}
	s := NewSession(Options{})
	for run := 0; run < 2; run++ {
		res, err := s.Extract(f)
		if err != nil {
			t.Fatal(err)
		}
		if run == 1 && res.Counters.LeafSweeps != 0 {
			t.Fatalf("warm run swept %d leaves", res.Counters.LeafSweeps)
		}
		if got := res.Diagnostics.All(); !slices.Equal(got, want) {
			t.Fatalf("session run %d: diagnostics %v, want the cold run's %v", run, got, want)
		}
	}
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		res, err := NewSession(Options{CacheDir: dir}).Extract(f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.DiskHits != run {
			t.Fatalf("disk run %d: %d disk hits", run, res.Counters.DiskHits)
		}
		if got := res.Diagnostics.All(); !slices.Equal(got, want) {
			t.Fatalf("disk run %d: diagnostics %v, want the cold run's %v", run, got, want)
		}
	}
}
