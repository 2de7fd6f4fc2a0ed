package raster

import (
	"math/rand"
	"testing"

	"ace/internal/extract"
	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/scan"
	"ace/internal/tech"
)

func box(l tech.Layer, x0, y0, x1, y1 int64) frontend.Box {
	return frontend.Box{Layer: l, Rect: geom.R(x0, y0, x1, y1)}
}

func rasterize(t *testing.T, opt Options, boxes ...frontend.Box) *Result {
	t.Helper()
	res, err := ExtractBoxes(boxes, opt)
	if err != nil {
		t.Fatal(err)
	}
	if probs := res.Netlist.Validate(); len(probs) > 0 {
		t.Fatalf("invalid netlist: %v", probs)
	}
	return res
}

func TestSimpleNet(t *testing.T) {
	res := rasterize(t, Options{Grid: 100},
		box(tech.Metal, 0, 0, 300, 100),
		box(tech.Metal, 200, 0, 300, 400),
		box(tech.Metal, 1000, 0, 1100, 100))
	if got := len(res.Netlist.Nets); got != 2 {
		t.Fatalf("nets %d, want 2", got)
	}
	if res.Counters.Squares != 11*4 {
		t.Fatalf("squares %d", res.Counters.Squares)
	}
}

func TestTransistor(t *testing.T) {
	res := rasterize(t, Options{Grid: 100},
		box(tech.Diff, 0, 0, 100, 300),
		box(tech.Poly, -100, 100, 200, 200))
	nl := res.Netlist
	if len(nl.Devices) != 1 {
		t.Fatalf("devices %d", len(nl.Devices))
	}
	d := nl.Devices[0]
	if d.Type != tech.Enhancement || d.Length != 100 || d.Width != 100 {
		t.Fatalf("device %+v", d)
	}
	if len(nl.Nets) != 3 {
		t.Fatalf("nets %d", len(nl.Nets))
	}
}

func TestMisalignedRejected(t *testing.T) {
	_, err := ExtractBoxes([]frontend.Box{box(tech.Metal, 0, 0, 150, 100)},
		Options{Grid: 100})
	if err == nil {
		t.Fatal("misaligned geometry must be rejected (fixed-grid constraint)")
	}
}

func TestInverterMatchesACE(t *testing.T) {
	f := gen.Inverter()
	aceRes, err := extract.File(f, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	boxes := stream.Drain()
	res, err := ExtractBoxes(boxes, Options{Grid: 200, Labels: stream.Labels()})
	if err != nil {
		t.Fatal(err)
	}
	eq, reason := netlist.Equivalent(aceRes.Netlist, res.Netlist)
	if !eq {
		t.Fatalf("raster disagrees with ACE on the inverter: %s\nACE:\n%s\nraster:\n%s",
			reason, aceRes.Netlist, res.Netlist)
	}
	// Sizes must agree exactly.
	for _, want := range [][2]int64{{400, 2800}, {1400, 400}} {
		found := false
		for _, d := range res.Netlist.Devices {
			if d.Length == want[0] && d.Width == want[1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("no device with L=%d W=%d\n%s", want[0], want[1], res.Netlist)
		}
	}
	// Names must attach to the same structure.
	for _, nm := range []string{"VDD", "GND", "INP", "OUT"} {
		if _, ok := res.Netlist.NetByName(nm); !ok {
			t.Fatalf("net %s missing from raster result", nm)
		}
	}
}

// TestRandomDifferential cross-validates the raster baseline against
// the scanline extractor on random λ-aligned layouts: the two
// algorithms must always produce isomorphic netlists.
func TestRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	layers := []tech.Layer{tech.Diff, tech.Poly, tech.Metal, tech.Cut, tech.Buried, tech.Implant}
	const grid = 100
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(25)
		boxes := make([]frontend.Box, n)
		for i := range boxes {
			l := layers[rng.Intn(len(layers))]
			x := int64(rng.Intn(12)) * grid
			y := int64(rng.Intn(12)) * grid
			w := int64(1+rng.Intn(5)) * grid
			h := int64(1+rng.Intn(5)) * grid
			boxes[i] = box(l, x, y, x+w, y+h)
		}

		rres, err := ExtractBoxes(boxes, Options{Grid: grid})
		if err != nil {
			t.Fatal(err)
		}
		sres, err := scan.Sweep(newSliceSource(boxes), scan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eq, reason := netlist.Equivalent(sres.Netlist, rres.Netlist)
		if !eq {
			t.Fatalf("trial %d: scan and raster disagree: %s\nboxes: %v\nscan:\n%s\nraster:\n%s",
				trial, reason, boxes, sres.Netlist, rres.Netlist)
		}
	}
}

// newSliceSource adapts a box slice to the scan.Source interface.
type sliceSource struct {
	boxes []frontend.Box
	pos   int
}

func newSliceSource(boxes []frontend.Box) *sliceSource {
	s := &sliceSource{boxes: append([]frontend.Box(nil), boxes...)}
	for i := 1; i < len(s.boxes); i++ {
		for j := i; j > 0 && s.boxes[j].Rect.YMax > s.boxes[j-1].Rect.YMax; j-- {
			s.boxes[j], s.boxes[j-1] = s.boxes[j-1], s.boxes[j]
		}
	}
	return s
}

func (s *sliceSource) NextTop() (int64, bool) {
	if s.pos >= len(s.boxes) {
		return 0, false
	}
	return s.boxes[s.pos].Rect.YMax, true
}

func (s *sliceSource) Next() (frontend.Box, bool) {
	if s.pos >= len(s.boxes) {
		return frontend.Box{}, false
	}
	b := s.boxes[s.pos]
	s.pos++
	return b, true
}

func TestEmpty(t *testing.T) {
	res, err := ExtractBoxes(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Nets) != 0 {
		t.Fatal("expected empty netlist")
	}
}

func TestLabelOutsideChipWarns(t *testing.T) {
	res := rasterize(t, Options{Grid: 100, Labels: []frontend.Label{
		{Name: "FAR", At: geom.Pt(100000, 100000)},
	}}, box(tech.Metal, 0, 0, 100, 100))
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Code != "unmatched-label" || res.Diagnostics[0].Stage != "raster" {
		t.Fatalf("expected an unmatched-label warning for the out-of-chip label, got %v", res.Diagnostics)
	}
}
