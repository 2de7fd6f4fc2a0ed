package hext

import (
	"testing"
	"time"

	"ace/internal/cif"
	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/netlist"
)

// hextVsACE extracts the same design with both extractors and demands
// isomorphic netlists.
func hextVsACE(t *testing.T, name string, f *cif.File, opt Options) (*Result, *extract.Result) {
	t.Helper()
	hres, err := Extract(f, opt)
	if err != nil {
		t.Fatalf("%s: hext: %v", name, err)
	}
	return hres, agreesWithACE(t, name, f, hres)
}

// agreesWithACE requires HEXT's netlist of f to be valid and equivalent
// to flat ACE's, which it returns.
func agreesWithACE(t *testing.T, name string, f *cif.File, hres *Result) *extract.Result {
	t.Helper()
	ares, err := extract.File(f, extract.Options{})
	if err != nil {
		t.Fatalf("%s: ace: %v", name, err)
	}
	if probs := hres.Netlist.Validate(); len(probs) > 0 {
		t.Fatalf("%s: invalid hext netlist: %v", name, probs)
	}
	eq, reason := netlist.Equivalent(ares.Netlist, hres.Netlist)
	if !eq {
		t.Fatalf("%s: hext disagrees with ACE: %s\nACE: %s\nHEXT: %s",
			name, reason, ares.Netlist.Stats(), hres.Netlist.Stats())
	}
	return ares
}

func TestInverter(t *testing.T) {
	hres, _ := hextVsACE(t, "inverter", gen.Inverter(), Options{})
	nl := hres.Netlist
	// Names must survive hierarchical extraction.
	for _, nm := range []string{"VDD", "GND", "INP", "OUT"} {
		if _, ok := nl.NetByName(nm); !ok {
			t.Fatalf("net %s missing\n%s", nm, nl)
		}
	}
	// Sizes are computed by the shared builder and must match the
	// paper exactly.
	for _, want := range [][2]int64{{400, 2800}, {1400, 400}} {
		found := false
		for _, d := range nl.Devices {
			if d.Length == want[0] && d.Width == want[1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("no device with L=%d W=%d\n%s", want[0], want[1], nl)
		}
	}
}

func TestFourInverters(t *testing.T) {
	hres, _ := hextVsACE(t, "fourInverters", gen.FourInverters(), Options{})
	if hres.Netlist.Stats().Devices != 8 {
		t.Fatalf("devices %d", hres.Netlist.Stats().Devices)
	}
	// The pair cell is called twice and the inverter four times; the
	// memo table must fire at least once.
	if hres.Counters.MemoHits == 0 {
		t.Fatalf("no memo hits on a maximally regular design: %+v", hres.Counters)
	}
}

func TestMemoryArrayMemoisation(t *testing.T) {
	w := gen.Memory(8, 8)
	hres, _ := hextVsACE(t, "memory", w.File, Options{})
	if got := len(hres.Netlist.Devices); got != w.WantDevices {
		t.Fatalf("devices %d, want %d", got, w.WantDevices)
	}
	if got := len(hres.Netlist.Nets); got != w.WantNets {
		t.Fatalf("nets %d, want %d", got, w.WantNets)
	}
	c := hres.Counters
	// 64 cells, but only a handful of unique windows.
	if c.FlatCalls >= 16 {
		t.Fatalf("flat calls %d — memoisation not working (%+v)", c.FlatCalls, c)
	}
	if c.MemoHits == 0 {
		t.Fatalf("no memo hits: %+v", c)
	}
}

func TestSquareArrayScaling(t *testing.T) {
	// HEXT Table 4-1's mechanism: growing the ideal array 4× must grow
	// the number of unique windows only additively (O(log N)), not
	// multiplicatively.
	w16 := gen.SquareArray(16)
	w256 := gen.SquareArray(256)
	h16, _ := hextVsACE(t, "array16", w16.File, Options{})
	h256, _ := hextVsACE(t, "array256", w256.File, Options{})
	u16, u256 := h16.Counters.UniqueWindows, h256.Counters.UniqueWindows
	if u256 > u16+40 {
		t.Fatalf("unique windows grew too fast: %d (16 cells) -> %d (256 cells)", u16, u256)
	}
	if len(h256.Netlist.Devices) != 256 {
		t.Fatalf("devices %d", len(h256.Netlist.Devices))
	}
}

func TestMeshPartialTransistors(t *testing.T) {
	// A geometry-only mesh larger than the leaf cap forces geometry
	// cuts straight through transistor channels (Mesh(5)'s odd width
	// puts the midpoint cut inside the middle diffusion column): the
	// partial-transistor machinery must reassemble them exactly.
	w := gen.Mesh(5)
	hres, _ := hextVsACE(t, "mesh", w.File, Options{MaxLeafItems: 4})
	if got := len(hres.Netlist.Devices); got != w.WantDevices {
		t.Fatalf("devices %d, want %d", got, w.WantDevices)
	}
	if got := len(hres.Netlist.Nets); got != w.WantNets {
		t.Fatalf("nets %d, want %d", got, w.WantNets)
	}
	if hres.Counters.FlatCalls < 2 {
		t.Fatalf("mesh was not split: %+v", hres.Counters)
	}
}

func TestMeshSizesSurviveSplitting(t *testing.T) {
	// Beyond isomorphism: W and L of every reassembled transistor must
	// equal the flat extractor's. (Equivalent hashes sizes, but check
	// explicitly for clarity.)
	w := gen.Mesh(4)
	hres, err := Extract(w.File, Options{MaxLeafItems: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range hres.Netlist.Devices {
		if d.Length != 2*gen.Lambda || d.Width != 2*gen.Lambda {
			t.Fatalf("device L=%d W=%d, want %d/%d", d.Length, d.Width, 2*gen.Lambda, 2*gen.Lambda)
		}
	}
}

func TestInverterSplitFine(t *testing.T) {
	// Cut the single inverter into many tiny windows: every seam rule
	// (net equivalence, partial merge, seam terminals, buried and cut
	// contacts split across windows) gets exercised.
	hres, _ := hextVsACE(t, "inverterFine", gen.Inverter(), Options{MaxLeafItems: 3})
	if hres.Counters.FlatCalls < 4 {
		t.Fatalf("expected many windows: %+v", hres.Counters)
	}
	for _, want := range [][2]int64{{400, 2800}, {1400, 400}} {
		found := false
		for _, d := range hres.Netlist.Devices {
			if d.Length == want[0] && d.Width == want[1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("L=%d W=%d lost in fine split\n%s", want[0], want[1], hres.Netlist)
		}
	}
}

func TestIrregular(t *testing.T) {
	w := gen.Irregular(20, 5)
	hres, _ := hextVsACE(t, "irregular", w.File, Options{})
	if got := len(hres.Netlist.Devices); got != w.WantDevices {
		t.Fatalf("devices %d, want %d", got, w.WantDevices)
	}
}

func TestDatapath(t *testing.T) {
	w := gen.Datapath(4, 4)
	hres, _ := hextVsACE(t, "datapath", w.File, Options{})
	if got := len(hres.Netlist.Devices); got != w.WantDevices {
		t.Fatalf("devices %d, want %d", got, w.WantDevices)
	}
	// Identical stages must be recognised.
	if hres.Counters.MemoHits == 0 {
		t.Fatalf("no memo hits on a regular datapath: %+v", hres.Counters)
	}
}

func TestInverterChainFunctionalWorkload(t *testing.T) {
	w := gen.InverterChain(6)
	hres, _ := hextVsACE(t, "chain", w.File, Options{})
	for _, nm := range []string{"IN", "OUT", "VDD", "GND"} {
		if _, ok := hres.Netlist.NetByName(nm); !ok {
			t.Fatalf("net %s missing", nm)
		}
	}
}

func TestChipsSmall(t *testing.T) {
	for _, name := range []string{"cherry", "testram", "schip2"} {
		c, _ := gen.ChipByName(name)
		w := c.Build(0.01)
		hres, _ := hextVsACE(t, name, w.File, Options{})
		if got := len(hres.Netlist.Devices); got != w.WantDevices {
			t.Fatalf("%s: devices %d, want %d", name, got, w.WantDevices)
		}
	}
}

func TestEmptyDesign(t *testing.T) {
	f, err := cif.ParseString("E\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(f, Options{}); err == nil {
		t.Fatal("empty design should error")
	}
}

func TestCountersAndTiming(t *testing.T) {
	w := gen.Memory(4, 4)
	t0 := time.Now()
	hres, err := Extract(w.File, Options{})
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	c := hres.Counters
	if c.FlatCalls == 0 || c.ComposeCalls == 0 || c.UniqueWindows == 0 {
		t.Fatalf("counters not recorded: %+v", c)
	}
	tm := hres.Timing
	if tm.Total() <= 0 {
		t.Fatal("no timing recorded")
	}
	// Every phase is a disjoint slice of the call's wall clock, so the
	// phases cannot add up to more than the call took.
	if sum := tm.FrontEnd + tm.Flat + tm.Compose + tm.Flatten; sum > wall {
		t.Fatalf("phases sum to %v, more than the call's wall time %v (%+v)", sum, wall, tm)
	}
}
