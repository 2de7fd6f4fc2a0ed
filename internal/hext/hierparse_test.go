package hext

import (
	"strings"
	"testing"

	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/netlist"
)

func roundTripHier(t *testing.T, name string, res *Result) {
	t.Helper()
	text := res.HierarchicalString()
	back, err := ParseHierarchicalString(text)
	if err != nil {
		t.Fatalf("%s: parse: %v\n%s", name, err, truncate(text, 3000))
	}
	if eq, why := netlist.Equivalent(res.Netlist, back); !eq {
		t.Fatalf("%s: hierarchical round trip not equivalent: %s\noriginal: %s\nparsed: %s",
			name, why, res.Netlist.Stats(), back.Stats())
	}
}

func TestHierRoundTripFourInverters(t *testing.T) {
	res, err := Extract(gen.FourInverters(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	roundTripHier(t, "fourInverters", res)
	// Names must survive: they live in leaf Net clauses... top-level
	// overlay labels are applied at flatten time, not in the text, so
	// only in-window names round trip. Check the parse result is
	// structurally complete instead.
	back, _ := ParseHierarchicalString(res.HierarchicalString())
	if len(back.Devices) != 8 {
		t.Fatalf("devices %d", len(back.Devices))
	}
}

func TestHierRoundTripMemory(t *testing.T) {
	res, err := Extract(gen.Memory(4, 6).File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	roundTripHier(t, "memory", res)
}

func TestHierRoundTripMeshPartials(t *testing.T) {
	// The crucial case: partial transistors split across windows must
	// flatten from TEXT to the same sizes as the in-memory DAG.
	res, err := Extract(gen.Mesh(5).File, Options{MaxLeafItems: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.HierarchicalString(), "TPart") {
		t.Fatal("workload has no partials; test is vacuous")
	}
	roundTripHier(t, "mesh", res)
	back, _ := ParseHierarchicalString(res.HierarchicalString())
	for _, d := range back.Devices {
		if d.Length != 2*gen.Lambda || d.Width != 2*gen.Lambda {
			t.Fatalf("partial reassembly from text wrong: L=%d W=%d", d.Length, d.Width)
		}
	}
}

func TestHierRoundTripChain(t *testing.T) {
	res, err := Extract(gen.InverterChain(4).File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	roundTripHier(t, "chain", res)
}

func TestHierParseErrors(t *testing.T) {
	cases := map[string]string{
		"no top":        `(DefPart Window1 (Exports ) (Local ))`,
		"undefined win": `(Part Window9 (Name Top))`,
		"dup window":    `(DefPart Window1 (Local ))(DefPart Window1 (Local ))(Part Window1 (Name Top))`,
		"bad clause":    `(DefPart Window1 (Bogus ))(Part Window1 (Name Top))`,
		"bad ref": `(DefPart Window1 (Local N0))
(DefPart Window2 (Part Window1 (Name P1) (LocOffset 0 0)) (Net N0 P9/N0))
(Part Window2 (Name Top))`,
	}
	for name, src := range cases {
		if _, err := ParseHierarchicalString(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestHierParseMinimalLeaf(t *testing.T) {
	src := `
(DefPart nEnh (Exports G S D))
(DefPart Window1 (Size 100 100)
 (Exports N0 N1 N2 )
 (Part nEnh (Name D0) (Loc 5 5) (T G N0) (T S N1) (T D N2) (Channel (Length 200) (Width 400)))
 (Net N0 CLK)
 (Local ))
(Part Window1 (Name Top))
`
	nl, err := ParseHierarchicalString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Devices) != 1 || nl.Devices[0].Length != 200 || nl.Devices[0].Width != 400 {
		t.Fatalf("device %+v", nl.Devices)
	}
	if _, ok := nl.NetByName("CLK"); !ok {
		t.Fatal("name lost")
	}
}

// TestHierRoundTripAwkwardNames: in-window names holding a
// parenthesis, a quote, a backslash or a space are written quoted and
// read back whole by the hierarchical reader.
func TestHierRoundTripAwkwardNames(t *testing.T) {
	d := gen.NewDesign()
	inv := gen.InverterCell(d)
	inv.Label(`x)y`, -2600, 3800).Label(`q"r`, -2600, -1600).Label(`a\b c`, 2200, 300)
	pair := d.Cell("pair")
	pair.CallAt(inv, 0, 0)
	pair.CallAt(inv, gen.InverterPitch, 0)
	d.CallTop(pair, geom.Identity)
	res, err := Extract(d.File(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	roundTripHier(t, "awkward", res)
	text := res.HierarchicalString()
	back, err := ParseHierarchicalString(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, nm := range []string{`x)y`, `q"r`, `a\b c`} {
		if _, ok := res.Netlist.NetByName(nm); !ok {
			t.Fatalf("extraction lost label %q", nm)
		}
		if _, ok := back.NetByName(nm); !ok {
			t.Errorf("name %q lost in the hierarchical round trip\n%s", nm, truncate(text, 3000))
		}
	}
}
