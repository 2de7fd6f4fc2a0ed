package hext

import (
	"bytes"
	"reflect"
	"testing"

	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// TestFlatCodecRoundTrip: a whole-result payload decodes to what was
// encoded, every field of every diagnostic included, and a payload of
// another version or with trailing bytes is refused.
func TestFlatCodecRoundTrip(t *testing.T) {
	nl := &netlist.Netlist{
		Name: "leaf",
		Nets: []netlist.Net{
			{Names: []string{"vdd", "a"}, Location: geom.Pt(-3, 7), Geometry: []netlist.LayerRect{
				{Layer: tech.Metal, Rect: geom.Rect{XMin: -1, YMin: -2, XMax: 3, YMax: 4}},
			}},
			{}, // nameless, geometry-free net
		},
		Devices: []netlist.Device{
			{
				Type: tech.Depletion, Gate: 0, Source: 1, Drain: 0,
				Length: 200, Width: 400, Area: 80000, ImplArea: 80000,
				Location:  geom.Pt(10, 20),
				Terminals: []netlist.Terminal{{Net: 1, Edge: 400}, {Net: 0, Edge: 300}},
				Geometry:  []geom.Rect{{XMin: 10, YMin: 20, XMax: 12, YMax: 24}},
			},
		},
	}
	located := diag.New(diag.Error, guard.StageParse, "missing-semicolon", "")
	located.Span = diag.Span{Offset: 41, Line: 3, Col: 7}
	circuit := diag.New(diag.Info, guard.StageCheck, "c", "m")
	circuit.Device, circuit.Net = 2, 0
	ds := []diag.Diagnostic{
		diag.New(diag.Warning, guard.StageSweep, "unmatched-label", `label "X" at (1,-2) matches no geometry`),
		located, circuit,
	}
	payload := encodeFlat(nl, ds)
	gotNl, gotDs, err := decodeFlat(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotNl, nl) {
		t.Fatalf("netlist mismatch:\n got %+v\nwant %+v", gotNl, nl)
	}
	if !reflect.DeepEqual(gotDs, ds) {
		t.Fatalf("diagnostics mismatch:\n got %+v\nwant %+v", gotDs, ds)
	}
	if _, gotDs, err := decodeFlat(encodeFlat(nl, nil)); err != nil || gotDs != nil {
		t.Fatalf("no findings: %v, %v", gotDs, err)
	}
	older := bytes.Clone(payload)
	older[0] = 1
	for _, p := range [][]byte{older, append(bytes.Clone(payload), 0)} {
		if _, _, err := decodeFlat(p); err == nil {
			t.Fatalf("payload % x accepted", p[:4])
		}
	}
}

// TestFlatCodecRejectsDamage: every truncation and a byte-flip sweep
// over a real payload must decode to an error or a *valid* value —
// never panic. Flips that strike content bytes may legitimately
// decode; flips that break structure must error.
func TestFlatCodecRejectsDamage(t *testing.T) {
	nl := &netlist.Netlist{Name: "x", Nets: []netlist.Net{{Names: []string{"n"}}},
		Devices: []netlist.Device{{Terminals: []netlist.Terminal{{Net: 0, Edge: 1}}}}}
	payload := encodeFlat(nl, []diag.Diagnostic{diag.New(diag.Warning, guard.StageSweep, "unmatched-label", "warn")})
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := decodeFlat(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := range payload {
		mut := bytes.Clone(payload)
		mut[i] ^= 0x55
		gotNl, _, err := decodeFlat(mut) // must not panic
		if err == nil {
			// Whatever decoded must still be internally consistent
			// enough to flatten: device net indices in range.
			for _, d := range gotNl.Devices {
				if d.Gate < 0 || d.Gate >= len(gotNl.Nets) {
					t.Fatalf("flip at %d decoded device with bad gate", i)
				}
				for _, term := range d.Terminals {
					if term.Net < 0 || term.Net >= len(gotNl.Nets) {
						t.Fatalf("flip at %d decoded bad terminal", i)
					}
				}
			}
		}
	}
}
