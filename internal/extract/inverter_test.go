package extract

import (
	"testing"

	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// TestInverterGolden reproduces Figure 3-4 of the paper: extracting
// the Figure 3-3 inverter must yield exactly the published devices,
// sizes, locations and net names.
func TestInverterGolden(t *testing.T) {
	res, err := File(gen.Inverter(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nl := res.Netlist
	if probs := nl.Validate(); len(probs) > 0 {
		t.Fatalf("invalid: %v", probs)
	}

	if len(nl.Devices) != 2 {
		t.Fatalf("devices %d, want 2\n%s", len(nl.Devices), nl)
	}
	if len(nl.Nets) != 4 {
		t.Fatalf("nets %d, want 4\n%s", len(nl.Nets), nl)
	}

	var enh, dep *netlist.Device
	for i := range nl.Devices {
		switch nl.Devices[i].Type {
		case tech.Enhancement:
			enh = &nl.Devices[i]
		case tech.Depletion:
			dep = &nl.Devices[i]
		}
	}
	if enh == nil || dep == nil {
		t.Fatalf("missing device types\n%s", nl)
	}

	// Figure 3-4: (Channel (Length 400) (Width 2800)), Location -800 -400.
	if enh.Length != 400 || enh.Width != 2800 {
		t.Errorf("enh L=%d W=%d, want 400/2800", enh.Length, enh.Width)
	}
	if enh.Location != geom.Pt(-800, -400) {
		t.Errorf("enh location %v, want (-800,-400)", enh.Location)
	}
	// Figure 3-4: (Channel (Length 1400) (Width 400)), Location -400 2800.
	if dep.Length != 1400 || dep.Width != 400 {
		t.Errorf("dep L=%d W=%d, want 1400/400", dep.Length, dep.Width)
	}
	if dep.Location != geom.Pt(-400, 2800) {
		t.Errorf("dep location %v, want (-400,2800)", dep.Location)
	}

	// Connectivity: enh gate=INP source=OUT drain=GND; dep gate=OUT,
	// terminals VDD and OUT.
	name := func(i int) string { return nl.Nets[i].Name(i) }
	if name(enh.Gate) != "INP" || name(enh.Source) != "OUT" || name(enh.Drain) != "GND" {
		t.Errorf("enh g/s/d = %s/%s/%s, want INP/OUT/GND",
			name(enh.Gate), name(enh.Source), name(enh.Drain))
	}
	if name(dep.Gate) != "OUT" || name(dep.Source) != "VDD" || name(dep.Drain) != "OUT" {
		t.Errorf("dep g/s/d = %s/%s/%s, want OUT/VDD/OUT",
			name(dep.Gate), name(dep.Source), name(dep.Drain))
	}

	// Net locations as published in Figure 3-4.
	wantLoc := map[string]geom.Point{
		"VDD": geom.Pt(-2600, 3800),
		"OUT": geom.Pt(-800, 2800),
		"INP": geom.Pt(-800, -400),
		"GND": geom.Pt(-400, -800),
	}
	for nm, want := range wantLoc {
		i, ok := nl.NetByName(nm)
		if !ok {
			t.Errorf("net %s missing", nm)
			continue
		}
		if nl.Nets[i].Location != want {
			t.Errorf("net %s location %v, want %v", nm, nl.Nets[i].Location, want)
		}
	}
	if res.Diagnostics.Len() != 0 {
		t.Errorf("diagnostics: %v", res.Diagnostics.All())
	}
}

func TestInverterKeepGeometry(t *testing.T) {
	res, err := File(gen.Inverter(), Options{KeepGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	nl := res.Netlist
	// The OUT net must include both poly (the dep gate) and diffusion.
	i, ok := nl.NetByName("OUT")
	if !ok {
		t.Fatal("OUT missing")
	}
	layers := map[tech.Layer]bool{}
	var area int64
	for _, g := range nl.Nets[i].Geometry {
		layers[g.Layer] = true
		area += g.Rect.Area()
	}
	if !layers[tech.Poly] || !layers[tech.Diff] {
		t.Fatalf("OUT layers %v, want poly+diff", layers)
	}
	if area == 0 {
		t.Fatal("OUT has no geometry area")
	}
	// Device channel geometry must match the figure's channel boxes.
	for _, d := range nl.Devices {
		if d.Type == tech.Enhancement {
			want := []geom.Rect{
				geom.R(-800, -2000, -400, -800),
				geom.R(-800, -800, 800, -400),
			}
			if !geom.SameRegion(d.Geometry, want) {
				t.Fatalf("enh channel geometry %v", d.Geometry)
			}
		}
	}
}

func TestFourInverters(t *testing.T) {
	res, err := File(gen.FourInverters(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nl := res.Netlist
	st := nl.Stats()
	if st.Devices != 8 || st.Enhancement != 4 || st.Depletion != 4 {
		t.Fatalf("stats %v", st)
	}
	// Shared rails plus four outputs: VDD, GND, INP, OUT0..OUT3 = 7.
	if st.Nets != 7 {
		t.Fatalf("nets %d, want 7\n%s", st.Nets, nl)
	}
	for _, nm := range []string{"VDD", "GND", "INP", "OUT0", "OUT1", "OUT2", "OUT3"} {
		if _, ok := nl.NetByName(nm); !ok {
			t.Fatalf("net %s missing", nm)
		}
	}
}

func TestInverterRowScales(t *testing.T) {
	for _, n := range []int{1, 3, 10} {
		res, err := File(gen.InverterRow(n), Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Netlist.Stats()
		if st.Devices != 2*n {
			t.Fatalf("n=%d devices %d", n, st.Devices)
		}
		// Nets: VDD+GND+INP shared + one OUT per inverter.
		if st.Nets != 3+n {
			t.Fatalf("n=%d nets %d, want %d", n, st.Nets, 3+n)
		}
	}
}

func TestRowEquivalentToRepeatedInverter(t *testing.T) {
	// An inverter row of 2 and the four-inverter quad's first half
	// must be isomorphic per-stage; here: compare a row of 4 with the
	// hierarchical quad (same layout, different hierarchy).
	rowRes, err := File(gen.InverterRow(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	quadRes, err := File(gen.FourInverters(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	eq, reason := netlist.Equivalent(rowRes.Netlist, quadRes.Netlist)
	if !eq {
		t.Fatalf("row and quad differ: %s", reason)
	}
}

func TestProfilePhases(t *testing.T) {
	res, err := File(gen.InverterRow(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Phases
	if p.Total <= 0 {
		t.Fatal("no total time")
	}
	sum := p.Parse + p.FrontEnd + p.Insert + p.Devices + p.Output + p.Misc()
	if sum > p.Total*2 {
		t.Fatalf("phase sum %v vs total %v", sum, p.Total)
	}
}

func TestStringEntryPoint(t *testing.T) {
	res, err := unpooled.CIF(nil, []byte("L ND; B 100 100 0 0;\nL NP; B 300 20 0 0;\nE\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Devices) != 1 {
		t.Fatalf("devices %d", len(res.Netlist.Devices))
	}
	if res.Phases.Parse <= 0 || res.Phases.Total < res.Phases.Parse {
		t.Fatalf("phases %+v", res.Phases)
	}
	// Parse errors surface.
	if _, err := unpooled.CIF(nil, []byte("DS 1;\n"), Options{}); err == nil {
		t.Fatal("expected parse error")
	}
}
