package build

import (
	"reflect"
	"strings"
	"testing"

	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/tech"
)

// TestNamingPrecedence: repeated names on one net collapse; a name
// claimed by two different nets stays with the first claimant and
// produces a label-conflict Warning at the builder's stage.
func TestNamingPrecedence(t *testing.T) {
	b := &Builder{Stage: "scan/sweep"}
	a := b.NewNet(geom.Pt(0, 100))
	c := b.NewNet(geom.Pt(0, 50))
	b.NameNet(a, "VDD")
	b.NameNet(a, "VDD") // duplicate on the same net: collapses silently
	b.NameNet(c, "VDD") // same name on a different net: first wins
	b.NameNet(c, "GND")

	nl, _ := b.Finish()
	if got := nl.Nets[0].Names; !reflect.DeepEqual(got, []string{"VDD"}) {
		t.Errorf("net 0 names = %v, want [VDD]", got)
	}
	if got := nl.Nets[1].Names; !reflect.DeepEqual(got, []string{"GND"}) {
		t.Errorf("net 1 names = %v, want [GND]", got)
	}
	ds := b.Diagnostics()
	if len(ds) != 1 || ds[0].Code != "label-conflict" || ds[0].Severity != diag.Warning ||
		ds[0].Stage != "scan/sweep" || !strings.Contains(ds[0].Message, `label "VDD" already names net 0`) {
		t.Errorf("diagnostics = %v, want one label-conflict Warning about VDD", ds)
	}
	if probs := nl.Validate(); len(probs) != 0 {
		t.Errorf("netlist invalid: %v", probs)
	}
}

// TestNamingAcrossUnion: a name bound twice through elements that later
// union is one binding, not a conflict.
func TestNamingAcrossUnion(t *testing.T) {
	b := &Builder{}
	a := b.NewNet(geom.Pt(0, 100))
	c := b.NewNet(geom.Pt(50, 100))
	b.NameNet(a, "X")
	b.NameNet(c, "X")
	b.NameNet(c, "Y")
	b.UnionNets(a, c)
	nl, _ := b.Finish()
	if len(nl.Nets) != 1 {
		t.Fatalf("nets = %d, want 1", len(nl.Nets))
	}
	if got := nl.Nets[0].Names; !reflect.DeepEqual(got, []string{"X", "Y"}) {
		t.Errorf("names = %v, want [X Y]", got)
	}
	if ds := b.Diagnostics(); len(ds) != 0 {
		t.Errorf("unexpected diagnostics: %v", ds)
	}
}

// transistor wires up a minimal two-terminal device.
func transistor(b *Builder, gate, src, drn int32) int32 {
	d := b.NewDev()
	b.AddChannel(d, geom.R(0, 0, 100, 100))
	b.AddGate(d, gate)
	b.AddTerm(d, src, 100)
	b.AddTerm(d, drn, 100)
	return d
}

// TestGateAnomalies: a device that sees two gate nets that never merge
// counts as one anomaly; gates that union later are benign.
func TestGateAnomalies(t *testing.T) {
	b := &Builder{}
	g1 := b.NewNet(geom.Pt(0, 0))
	g2 := b.NewNet(geom.Pt(10, 0))
	g3 := b.NewNet(geom.Pt(20, 0))
	s := b.NewNet(geom.Pt(30, 0))
	d := b.NewNet(geom.Pt(40, 0))

	bad := transistor(b, g1, s, d)
	b.AddGate(bad, g2) // distinct forever: anomaly
	b.AddGate(bad, g1) // repeat of the first: not another anomaly

	ok := transistor(b, g1, s, d)
	b.AddGate(ok, g3)
	b.UnionNets(g1, g3) // merges later: no anomaly

	nl, fs := b.Finish()
	if fs.GateAnomalies != 1 {
		t.Errorf("GateAnomalies = %d, want 1", fs.GateAnomalies)
	}
	// The first gate seen wins.
	if got := nl.Devices[0].Gate; got != 0 {
		t.Errorf("anomalous device gate = %d, want 0", got)
	}
}

// TestFinishDeterminism: two identical fact sequences produce
// deeply-equal netlists — the property that makes every pipeline's
// wirelist diff-testable byte for byte against another's.
func TestFinishDeterminism(t *testing.T) {
	run := func() ([]byte, interface{}) {
		b := &Builder{KeepGeometry: true}
		var nets []int32
		for i := 0; i < 20; i++ {
			nets = append(nets, b.NewNet(geom.Pt(int64(i), int64(100-i))))
		}
		// A web of unions plus named nets and two devices.
		for i := 0; i+5 < 20; i += 3 {
			b.UnionNets(nets[i], nets[i+5])
		}
		b.NameNet(nets[2], "A")
		b.NameNet(nets[7], "B")
		b.AddNetGeometry(nets[3], tech.Metal, geom.R(0, 0, 10, 10))
		transistor(b, nets[1], nets[4], nets[9])
		d2 := transistor(b, nets[0], nets[6], nets[11])
		b.AddImplant(d2, 9000)
		nl, _ := b.Finish()
		return []byte(nl.String()), nl
	}
	t1, nl1 := run()
	t2, nl2 := run()
	if string(t1) != string(t2) {
		t.Fatalf("non-deterministic Finish:\n%s\nvs\n%s", t1, t2)
	}
	if !reflect.DeepEqual(nl1, nl2) {
		t.Fatal("netlists not deeply equal across runs")
	}
}

// TestDeviceDerivation covers the classification rules end to end.
func TestDeviceDerivation(t *testing.T) {
	b := &Builder{}
	g := b.NewNet(geom.Pt(0, 0))
	s := b.NewNet(geom.Pt(10, 0))

	// Depletion by implant majority.
	dep := b.NewDev()
	b.AddChannel(dep, geom.R(0, 0, 100, 100))
	b.AddGate(dep, g)
	b.AddTerm(dep, s, 120)
	b.AddTerm(dep, s, 40) // same net: edges accumulate
	b.AddImplant(dep, 6000)

	// Capacitor: the only terminal net is the gate net.
	cap := b.NewDev()
	b.AddChannel(cap, geom.R(0, 0, 50, 200))
	b.AddGate(cap, g)
	b.AddTerm(cap, g, 50)

	nl, fs := b.Finish()
	if fs.GateAnomalies != 0 {
		t.Errorf("anomalies = %d", fs.GateAnomalies)
	}
	d := nl.Devices[0]
	if d.Type != tech.Depletion {
		t.Errorf("device 0 type = %v, want depletion", d.Type)
	}
	// One merged terminal of edge 160: source == drain, W=160, L=area/W.
	if len(d.Terminals) != 1 || d.Terminals[0].Edge != 160 {
		t.Errorf("terminals = %+v, want one with edge 160", d.Terminals)
	}
	if d.Width != 160 || d.Length != 10000/160 {
		t.Errorf("W=%d L=%d", d.Width, d.Length)
	}
	c := nl.Devices[1]
	if c.Type != tech.Capacitor || c.Source != c.Gate || c.Drain != c.Gate {
		t.Errorf("capacitor wrong: %+v", c)
	}
	if c.Location != geom.Pt(0, 200) {
		t.Errorf("capacitor location = %v", c.Location)
	}
}

// TestBetterLoc: the net keeps the highest, then left-most point.
func TestBetterLoc(t *testing.T) {
	b := &Builder{}
	n := b.NewNet(geom.Pt(50, 10))
	b.BetterLoc(n, geom.Pt(90, 20)) // higher: wins
	b.BetterLoc(n, geom.Pt(10, 20)) // same height, lefter: wins
	b.BetterLoc(n, geom.Pt(0, 5))   // lower: loses
	m := b.NewNet(geom.Pt(-5, 20))  // union keeps the better of the two
	b.UnionNets(n, m)
	nl, _ := b.Finish()
	if nl.Nets[0].Location != geom.Pt(-5, 20) {
		t.Errorf("location = %v, want (-5,20)", nl.Nets[0].Location)
	}
}
