package wirelist

import (
	"strings"
	"testing"

	"ace/internal/cif"
	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

func extractInverter(t *testing.T, keepGeom bool) *netlist.Netlist {
	t.Helper()
	res, err := extract.File(gen.Inverter(), extract.Options{KeepGeometry: keepGeom})
	if err != nil {
		t.Fatal(err)
	}
	res.Netlist.Name = "inverter.cif"
	return res.Netlist
}

func TestWriteStructure(t *testing.T) {
	nl := extractInverter(t, false)
	text := Format(nl, Options{})
	for _, want := range []string{
		`(DefPart "inverter.cif"`,
		"(DefPart nEnh (Export Source Gate Drain))",
		"(DefPart nDep (Export Source Gate Drain))",
		"(Part nEnh",
		"(Part nDep",
		"(Channel (Length 400) (Width 2800)",
		"(Channel (Length 1400) (Width 400)",
		"VDD",
		"GND",
		"INP",
		"OUT",
		"(Local",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n%s", want, text)
		}
	}
	// No geometry clauses without the option ("Under normal operation
	// this is suppressed").
	if strings.Contains(text, "CIF") {
		t.Error("geometry emitted without the option")
	}
}

func TestWriteGeometry(t *testing.T) {
	nl := extractInverter(t, true)
	text := Format(nl, Options{Geometry: true})
	if !strings.Contains(text, "L NX; B L400 W1200 C-600 -1400;") {
		t.Errorf("enh channel geometry missing (Figure 3-4 form)\n%s", text)
	}
	if !strings.Contains(text, "L NM;") || !strings.Contains(text, "L ND;") {
		t.Error("net geometry missing")
	}
}

func TestRoundTrip(t *testing.T) {
	nl := extractInverter(t, false)
	text := Format(nl, Options{})
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	eq, reason := netlist.Equivalent(nl, back)
	if !eq {
		t.Fatalf("round trip not equivalent: %s", reason)
	}
	// Names and locations must also survive.
	for _, nm := range []string{"VDD", "GND", "INP", "OUT"} {
		i, ok := back.NetByName(nm)
		if !ok {
			t.Fatalf("net %s lost", nm)
		}
		j, _ := nl.NetByName(nm)
		if back.Nets[i].Location != nl.Nets[j].Location {
			t.Errorf("net %s location %v vs %v", nm, back.Nets[i].Location, nl.Nets[j].Location)
		}
	}
	if back.Name != "inverter.cif" {
		t.Errorf("name %q", back.Name)
	}
}

func TestRoundTripWithGeometry(t *testing.T) {
	nl := extractInverter(t, true)
	text := Format(nl, Options{Geometry: true})
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if eq, reason := netlist.Equivalent(nl, back); !eq {
		t.Fatalf("not equivalent: %s", reason)
	}
	// Net geometry must survive the text exactly (per layer, as
	// regions) — the R/C post-processor depends on it.
	for i := range nl.Nets {
		name := nl.Nets[i].Name(i)
		j, ok := back.NetByName(name)
		if !ok {
			t.Fatalf("net %s lost", name)
		}
		for l := tech.Layer(0); int(l) < tech.NumLayers; l++ {
			var a, b []geom.Rect
			for _, g := range nl.Nets[i].Geometry {
				if g.Layer == l {
					a = append(a, g.Rect)
				}
			}
			for _, g := range back.Nets[j].Geometry {
				if g.Layer == l {
					b = append(b, g.Rect)
				}
			}
			if !geom.SameRegion(a, b) {
				t.Fatalf("net %s layer %v geometry changed:\n%v\nvs\n%v", name, l, a, b)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unbalanced open":    `(DefPart "x"`,
		"unbalanced close":   `(DefPart "x"))`,
		"no toplevel":        ``,
		"two toplevel":       `(DefPart "a")(DefPart "b")`,
		"not defpart":        `(Foo "x")`,
		"unknown form":       `(DefPart "x" (Bogus 1))`,
		"bad part type":      `(DefPart "x" (Part nXyz (T Gate N1) (T Source N2) (T Drain N3)))`,
		"missing terminals":  `(DefPart "x" (Part nEnh (T Gate N1)))`,
		"unterminated quote": `(DefPart "x`,
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseMinimal(t *testing.T) {
	src := `
(DefPart "mini"
(DefPart nEnh (Export Source Gate Drain))
(Part nEnh (InstName D0) (Location 10 20)
 (T Gate NA) (T Source NB) (T Drain NC)
 (Channel (Length 200) (Width 400)))
(Net NA IN (Location 0 0))
(Net NB OUT (Location 1 1))
(Net NC GND (Location 2 2))
(Local NA NB NC ))
`
	nl, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Devices) != 1 || len(nl.Nets) != 3 {
		t.Fatalf("parsed %d devices %d nets", len(nl.Devices), len(nl.Nets))
	}
	d := nl.Devices[0]
	if d.Length != 200 || d.Width != 400 {
		t.Fatalf("L/W %d/%d", d.Length, d.Width)
	}
	if i, ok := nl.NetByName("OUT"); !ok || i != d.Source {
		t.Fatalf("source net wrong")
	}
}

// TestRoundTripAwkwardLabels: CIF accepts label names holding
// a closing parenthesis, a quote or a backslash; they must survive
// Write → Parse.
func TestRoundTripAwkwardLabels(t *testing.T) {
	var sb strings.Builder
	if err := cif.Write(&sb, gen.Inverter()); err != nil {
		t.Fatal(err)
	}
	src := strings.NewReplacer("94 VDD", "94 x)y", "94 GND", `94 q"r`, "94 INP", `94 a\b`).Replace(sb.String())
	var cold *extract.Engine // nil: never pools
	res, err := cold.CIF(nil, []byte(src), extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Netlist.Name = `in "v" \ 1`
	text := Format(res.Netlist, Options{})
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if back.Name != res.Netlist.Name {
		t.Errorf("DefPart name %q, want %q", back.Name, res.Netlist.Name)
	}
	for _, nm := range []string{"x)y", `q"r`, `a\b`, "OUT"} {
		i, ok := res.Netlist.NetByName(nm)
		if !ok {
			t.Fatalf("extraction lost label %q", nm)
		}
		j, ok := back.NetByName(nm)
		if !ok {
			t.Fatalf("net %q lost in the round trip\n%s", nm, text)
		}
		if back.Nets[j].Location != res.Netlist.Nets[i].Location {
			t.Errorf("net %q moved from %v to %v", nm, res.Netlist.Nets[i].Location, back.Nets[j].Location)
		}
	}
}
