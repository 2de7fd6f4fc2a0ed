package scan

import (
	"sort"
	"testing"

	"ace/internal/diag"
	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/tech"
)

// sliceSource adapts a box list to the Source interface, sorting it by
// descending top edge as the front end would.
type sliceSource struct {
	boxes []frontend.Box
	pos   int
}

func newSource(boxes ...frontend.Box) *sliceSource {
	s := &sliceSource{boxes: boxes}
	sort.SliceStable(s.boxes, func(i, j int) bool {
		return s.boxes[i].Rect.YMax > s.boxes[j].Rect.YMax
	})
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

func box(l tech.Layer, x0, y0, x1, y1 int64) frontend.Box {
	return frontend.Box{Layer: l, Rect: geom.R(x0, y0, x1, y1)}
}

func sweep(t *testing.T, opt Options, boxes ...frontend.Box) *Result {
	t.Helper()
	res, err := Sweep(newSource(boxes...), opt)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if probs := res.Netlist.Validate(); len(probs) > 0 {
		t.Fatalf("invalid netlist: %v", probs)
	}
	return res
}

func TestSingleBoxSingleNet(t *testing.T) {
	res := sweep(t, Options{}, box(tech.Metal, 0, 0, 100, 100))
	if got := len(res.Netlist.Nets); got != 1 {
		t.Fatalf("nets %d", got)
	}
	if got := len(res.Netlist.Devices); got != 0 {
		t.Fatalf("devices %d", got)
	}
	if res.Netlist.Nets[0].Location != geom.Pt(0, 100) {
		t.Fatalf("location %v", res.Netlist.Nets[0].Location)
	}
}

func TestDisjointBoxesSeparateNets(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Metal, 200, 0, 300, 100),
		box(tech.Metal, 0, 200, 100, 300))
	if got := len(res.Netlist.Nets); got != 3 {
		t.Fatalf("nets %d, want 3", got)
	}
}

func TestOverlapSameLayerOneNet(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Metal, 50, 50, 150, 150))
	if got := len(res.Netlist.Nets); got != 1 {
		t.Fatalf("nets %d, want 1", got)
	}
}

func TestEdgeAbutmentConnects(t *testing.T) {
	// Horizontal abutment.
	res := sweep(t, Options{},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Metal, 100, 0, 200, 100))
	if got := len(res.Netlist.Nets); got != 1 {
		t.Fatalf("horizontal abutment: nets %d, want 1", got)
	}
	// Vertical abutment.
	res = sweep(t, Options{},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Metal, 0, 100, 100, 200))
	if got := len(res.Netlist.Nets); got != 1 {
		t.Fatalf("vertical abutment: nets %d, want 1", got)
	}
	// Partial vertical abutment still connects.
	res = sweep(t, Options{},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Metal, 60, 100, 160, 200))
	if got := len(res.Netlist.Nets); got != 1 {
		t.Fatalf("partial vertical abutment: nets %d, want 1", got)
	}
}

func TestCornerContactDoesNotConnect(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Metal, 100, 100, 200, 200))
	if got := len(res.Netlist.Nets); got != 2 {
		t.Fatalf("corner contact: nets %d, want 2", got)
	}
}

func TestDifferentLayersDoNotConnect(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Poly, 0, 0, 100, 100))
	if got := len(res.Netlist.Nets); got != 2 {
		t.Fatalf("nets %d, want 2", got)
	}
}

func TestUShapeMergesNets(t *testing.T) {
	// Two arms that look distinct until the bottom bar joins them —
	// the reason ACE cannot output nets before the sweep finishes.
	res := sweep(t, Options{},
		box(tech.Metal, 0, 0, 10, 100),
		box(tech.Metal, 20, 0, 30, 100),
		box(tech.Metal, 0, -20, 30, 0))
	if got := len(res.Netlist.Nets); got != 1 {
		t.Fatalf("U-shape: nets %d, want 1", got)
	}
}

func TestCombShape(t *testing.T) {
	// Many teeth joined by a spine.
	var boxes []frontend.Box
	for i := int64(0); i < 10; i++ {
		boxes = append(boxes, box(tech.Poly, i*30, 0, i*30+10, 200))
	}
	boxes = append(boxes, box(tech.Poly, 0, -30, 9*30+10, 0))
	res := sweep(t, Options{}, boxes...)
	if got := len(res.Netlist.Nets); got != 1 {
		t.Fatalf("comb: nets %d, want 1", got)
	}
}

func TestSimpleTransistor(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 100, 300),
		box(tech.Poly, -50, 100, 150, 200))
	nl := res.Netlist
	if len(nl.Devices) != 1 {
		t.Fatalf("devices %d, want 1", len(nl.Devices))
	}
	d := nl.Devices[0]
	if d.Type != tech.Enhancement {
		t.Fatalf("type %v", d.Type)
	}
	if d.Length != 100 || d.Width != 100 {
		t.Fatalf("L=%d W=%d, want 100x100", d.Length, d.Width)
	}
	if d.Area != 100*100 {
		t.Fatalf("area %d", d.Area)
	}
	// Nets: poly gate, upper diff, lower diff = 3, and the channel
	// must keep the two diff nets apart.
	if len(nl.Nets) != 3 {
		t.Fatalf("nets %d, want 3", len(nl.Nets))
	}
	if d.Source == d.Drain {
		t.Fatal("source and drain must differ")
	}
	if d.Gate == d.Source || d.Gate == d.Drain {
		t.Fatal("gate must be the poly net")
	}
	if d.Location != geom.Pt(0, 200) {
		t.Fatalf("location %v", d.Location)
	}
	if len(d.Terminals) != 2 {
		t.Fatalf("terminals %v", d.Terminals)
	}
}

func TestHorizontalTransistor(t *testing.T) {
	// Poly crosses vertically over a horizontal diffusion wire: the
	// S/D contacts are vertical edges (within-strip accounting).
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 300, 100),
		box(tech.Poly, 100, -50, 200, 150))
	nl := res.Netlist
	if len(nl.Devices) != 1 {
		t.Fatalf("devices %d, want 1", len(nl.Devices))
	}
	d := nl.Devices[0]
	if d.Length != 100 || d.Width != 100 {
		t.Fatalf("L=%d W=%d, want 100x100", d.Length, d.Width)
	}
	if len(nl.Nets) != 3 {
		t.Fatalf("nets %d, want 3", len(nl.Nets))
	}
}

func TestWideTransistorLW(t *testing.T) {
	// 40-wide channel, 10 long: poly 10 tall crossing diff 40 wide.
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 40, 100),
		box(tech.Poly, -10, 40, 50, 50))
	d := res.Netlist.Devices[0]
	if d.Width != 40 || d.Length != 10 {
		t.Fatalf("L=%d W=%d, want L=10 W=40", d.Length, d.Width)
	}
}

func TestDepletionViaImplant(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 100, 300),
		box(tech.Poly, -50, 100, 150, 200),
		box(tech.Implant, -20, 80, 120, 220))
	d := res.Netlist.Devices[0]
	if d.Type != tech.Depletion {
		t.Fatalf("type %v, want depletion", d.Type)
	}
}

func TestPartialImplantMajorityRules(t *testing.T) {
	// Implant covering less than half the channel: enhancement.
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 100, 300),
		box(tech.Poly, -50, 100, 150, 200),
		box(tech.Implant, 0, 100, 30, 200))
	if d := res.Netlist.Devices[0]; d.Type != tech.Enhancement {
		t.Fatalf("30%% implant: type %v, want enhancement", d.Type)
	}
	// Covering more than half: depletion.
	res = sweep(t, Options{},
		box(tech.Diff, 0, 0, 100, 300),
		box(tech.Poly, -50, 100, 150, 200),
		box(tech.Implant, 0, 100, 80, 200))
	if d := res.Netlist.Devices[0]; d.Type != tech.Depletion {
		t.Fatalf("80%% implant: type %v, want depletion", d.Type)
	}
}

func TestBuriedContactNoTransistor(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 100, 100),
		box(tech.Poly, 0, 0, 100, 200),
		box(tech.Buried, 0, 0, 100, 100))
	nl := res.Netlist
	if len(nl.Devices) != 0 {
		t.Fatalf("devices %d, want 0 (buried contact)", len(nl.Devices))
	}
	if len(nl.Nets) != 1 {
		t.Fatalf("nets %d, want 1 (poly joined to diff)", len(nl.Nets))
	}
}

func TestPartialBuried(t *testing.T) {
	// Poly crosses diffusion; buried covers only the left half of the
	// overlap: the right half is still a transistor, and the diff is
	// connected to poly through the buried half.
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 100, 300),
		box(tech.Poly, -50, 100, 150, 200),
		box(tech.Buried, -50, 100, 50, 200))
	nl := res.Netlist
	if len(nl.Devices) != 1 {
		t.Fatalf("devices %d, want 1", len(nl.Devices))
	}
	d := nl.Devices[0]
	if d.Area != 50*100 {
		t.Fatalf("channel area %d, want 5000", d.Area)
	}
	// Poly, upper diff and lower diff are all joined through the
	// buried contact, so every terminal of the device coincides with
	// its gate — which is exactly the MOS-capacitor pattern.
	if len(nl.Nets) != 1 {
		t.Fatalf("nets %d, want 1 (joined through buried)", len(nl.Nets))
	}
	if d.Type != tech.Capacitor || d.Gate != d.Source || d.Source != d.Drain {
		t.Fatalf("device %+v, want capacitor with coincident terminals", d)
	}
}

func TestCutConnectsMetalToPoly(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Poly, 0, 0, 100, 100),
		box(tech.Cut, 30, 30, 70, 70))
	if got := len(res.Netlist.Nets); got != 1 {
		t.Fatalf("nets %d, want 1", got)
	}
}

func TestCutConnectsMetalToDiff(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Diff, 0, 0, 100, 100),
		box(tech.Cut, 30, 30, 70, 70))
	if got := len(res.Netlist.Nets); got != 1 {
		t.Fatalf("nets %d, want 1", got)
	}
}

func TestButtingContact(t *testing.T) {
	// Metal over a poly/diff butt joined by one cut: all three become
	// one net.
	res := sweep(t, Options{},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Poly, 0, 0, 50, 100),
		box(tech.Diff, 50, 0, 100, 100),
		box(tech.Cut, 20, 30, 80, 70))
	if got := len(res.Netlist.Nets); got != 1 {
		t.Fatalf("nets %d, want 1", got)
	}
}

func TestCutWithoutMetalDoesNotConnect(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Poly, 0, 0, 100, 100),
		box(tech.Diff, 0, 0, 100, 100),
		box(tech.Cut, 30, 30, 70, 70))
	// Poly over diff without buried is a transistor; the cut alone
	// must not join poly to diff.
	nl := res.Netlist
	if len(nl.Devices) != 1 {
		t.Fatalf("devices %d", len(nl.Devices))
	}
}

func TestCrossingWiresStaySeparate(t *testing.T) {
	// Metal crossing poly without a cut: two nets.
	res := sweep(t, Options{},
		box(tech.Metal, 40, 0, 60, 200),
		box(tech.Poly, 0, 90, 200, 110))
	if got := len(res.Netlist.Nets); got != 2 {
		t.Fatalf("nets %d, want 2", got)
	}
}

func TestLabelsAttach(t *testing.T) {
	res := sweep(t, Options{Labels: []frontend.Label{
		{Name: "VDD", At: geom.Pt(50, 50), Layer: tech.Metal, HasLayer: true},
		{Name: "IN", At: geom.Pt(250, 50)},
	}},
		box(tech.Metal, 0, 0, 100, 100),
		box(tech.Poly, 200, 0, 300, 100))
	nl := res.Netlist
	i, ok := nl.NetByName("VDD")
	if !ok {
		t.Fatal("VDD not found")
	}
	if nl.Nets[i].Location != geom.Pt(0, 100) {
		t.Fatalf("VDD location %v", nl.Nets[i].Location)
	}
	if _, ok := nl.NetByName("IN"); !ok {
		t.Fatal("layerless label IN not attached")
	}
	if res.Counters.LabelMisses != 0 {
		t.Fatalf("misses %d", res.Counters.LabelMisses)
	}
}

func TestLabelOnBoxTopEdge(t *testing.T) {
	res := sweep(t, Options{Labels: []frontend.Label{
		{Name: "A", At: geom.Pt(50, 100)}, // exactly on the top edge
		{Name: "B", At: geom.Pt(0, 0)},    // exactly on the bottom-left corner
	}},
		box(tech.Metal, 0, 0, 100, 100))
	nl := res.Netlist
	if _, ok := nl.NetByName("A"); !ok {
		t.Fatal("top-edge label missed")
	}
	if _, ok := nl.NetByName("B"); !ok {
		t.Fatal("bottom-corner label missed")
	}
}

func TestLabelMissWarns(t *testing.T) {
	res := sweep(t, Options{Labels: []frontend.Label{
		{Name: "GHOST", At: geom.Pt(1000, 1000)},
	}},
		box(tech.Metal, 0, 0, 100, 100))
	want := diag.New(diag.Warning, guard.StageSweep, "unmatched-label",
		`label "GHOST" at (1000,1000) matches no geometry`)
	if res.Counters.LabelMisses != 1 || len(res.Diagnostics) != 1 || res.Diagnostics[0] != want {
		t.Fatalf("misses %d diagnostics %v", res.Counters.LabelMisses, res.Diagnostics)
	}
}

func TestTwoLabelsSameNetMerge(t *testing.T) {
	res := sweep(t, Options{Labels: []frontend.Label{
		{Name: "X", At: geom.Pt(5, 50)},
		{Name: "Y", At: geom.Pt(95, 50)},
	}},
		box(tech.Metal, 0, 0, 100, 100))
	nl := res.Netlist
	if len(nl.Nets) != 1 || len(nl.Nets[0].Names) != 2 {
		t.Fatalf("names %v", nl.Nets[0].Names)
	}
}

func TestSharedGatePoly(t *testing.T) {
	// One poly line crossing two diffusion strips: two transistors
	// sharing a gate net.
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 100, 300),
		box(tech.Diff, 200, 0, 300, 300),
		box(tech.Poly, -50, 100, 350, 200))
	nl := res.Netlist
	if len(nl.Devices) != 2 {
		t.Fatalf("devices %d, want 2", len(nl.Devices))
	}
	if nl.Devices[0].Gate != nl.Devices[1].Gate {
		t.Fatal("devices must share the gate net")
	}
	// 2 diff nets per transistor + 1 shared poly = 5.
	if len(nl.Nets) != 5 {
		t.Fatalf("nets %d, want 5", len(nl.Nets))
	}
}

func TestSerpentineTransistorSingleDevice(t *testing.T) {
	// An L-shaped poly path over one diffusion region forms a single
	// connected channel — one transistor, not two.
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 300, 300),
		box(tech.Poly, 100, -50, 200, 200), // vertical arm entering from below
		box(tech.Poly, 100, 100, 400, 200)) // horizontal arm exiting right
	nl := res.Netlist
	if len(nl.Devices) != 1 {
		t.Fatalf("devices %d, want 1", len(nl.Devices))
	}
	d := nl.Devices[0]
	// Vertical arm ∩ diff = [100,200]×[0,200] (20000); the horizontal
	// arm adds [200,300]×[100,200] (10000).
	wantArea := int64(30000)
	if d.Area != wantArea {
		t.Fatalf("area %d, want %d", d.Area, wantArea)
	}
}

func TestLShapedChannelPaperValues(t *testing.T) {
	// The enhancement transistor of Figure 3-3/3-4, reduced to its
	// essential geometry. Channel boxes: [-800,-2000,-400,-800] and
	// [-800,-800,800,-400]; the paper reports Length 400, Width 2800.
	res := sweep(t, Options{},
		// Diffusion: channel region plus the source arm (left), the
		// source bar (top) and the drain block (right).
		box(tech.Diff, -800, -2000, -400, -800),  // channel part 1
		box(tech.Diff, -800, -800, 800, -400),    // channel part 2
		box(tech.Diff, -1200, -2000, -800, -400), // source arm (N5)
		box(tech.Diff, -1200, -400, 800, 0),      // source top bar (N5)
		box(tech.Diff, -400, -2000, 800, -800),   // drain block (N11)
		// Poly gate covering exactly the channel region.
		box(tech.Poly, -800, -2400, -400, -800), // vertical gate arm
		box(tech.Poly, -800, -800, 1800, -400),  // horizontal gate arm
	)
	nl := res.Netlist
	if len(nl.Devices) != 1 {
		t.Fatalf("devices %d, want 1\n%s", len(nl.Devices), nl)
	}
	d := nl.Devices[0]
	if d.Area != 1120000 {
		t.Fatalf("area %d, want 1120000", d.Area)
	}
	if d.Width != 2800 || d.Length != 400 {
		t.Fatalf("L=%d W=%d, want L=400 W=2800 (paper)", d.Length, d.Width)
	}
	if d.Location != geom.Pt(-800, -400) {
		t.Fatalf("location %v, want (-800,-400) (paper)", d.Location)
	}
	// Terminals: source edge 3200 (1200 + 400 + 1600), drain 2400.
	if len(d.Terminals) != 2 || d.Terminals[0].Edge != 3200 || d.Terminals[1].Edge != 2400 {
		t.Fatalf("terminals %v", d.Terminals)
	}
}

func TestKeepGeometry(t *testing.T) {
	res := sweep(t, Options{KeepGeometry: true},
		box(tech.Diff, 0, 0, 100, 300),
		box(tech.Poly, -50, 100, 150, 200))
	nl := res.Netlist
	d := nl.Devices[0]
	if len(d.Geometry) != 1 || d.Geometry[0] != geom.R(0, 100, 100, 200) {
		t.Fatalf("device geometry %v", d.Geometry)
	}
	// The upper diffusion net's geometry: [0,200,100,300].
	found := false
	for _, n := range nl.Nets {
		for _, g := range n.Geometry {
			if g.Layer == tech.Diff && g.Rect == geom.R(0, 200, 100, 300) {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("upper diffusion geometry not recorded: %+v", nl.Nets)
	}
}

func TestGeometryOffByDefault(t *testing.T) {
	res := sweep(t, Options{}, box(tech.Metal, 0, 0, 100, 100))
	if len(res.Netlist.Nets[0].Geometry) != 0 {
		t.Fatal("geometry recorded without KeepGeometry")
	}
}

func TestCapacitor(t *testing.T) {
	// Gate tied to its single S/D net through a buried contact: a MOS
	// capacitor.
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 100, 300),
		box(tech.Poly, -50, -50, 150, 350), // covers all of the diffusion
		box(tech.Buried, 0, 200, 100, 300)) // joins poly to upper diff
	nl := res.Netlist
	if len(nl.Devices) != 1 {
		t.Fatalf("devices %d\n%s", len(nl.Devices), nl)
	}
	d := nl.Devices[0]
	if d.Type != tech.Capacitor {
		t.Fatalf("type %v, want capacitor\n%s", d.Type, nl)
	}
	if d.Source != d.Drain || d.Source != d.Gate {
		t.Fatal("capacitor terminals must all coincide")
	}
}

func TestCountersReasonable(t *testing.T) {
	res := sweep(t, Options{},
		box(tech.Diff, 0, 0, 100, 300),
		box(tech.Poly, -50, 100, 150, 200))
	c := res.Counters
	if c.BoxesIn != 2 {
		t.Fatalf("BoxesIn %d", c.BoxesIn)
	}
	// Stops: tops 300, 200, plus bottoms 100, 0 = 4 distinct stops,
	// the last of which ends the sweep.
	if c.Stops < 3 || c.Stops > 4 {
		t.Fatalf("Stops %d", c.Stops)
	}
	if c.MaxActive < 2 {
		t.Fatalf("MaxActive %d", c.MaxActive)
	}
}

func TestEmptySource(t *testing.T) {
	res, err := Sweep(newSource(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Nets) != 0 || len(res.Netlist.Devices) != 0 {
		t.Fatal("empty design must produce empty netlist")
	}
}

func TestMeshTransistorGrid(t *testing.T) {
	// n poly columns crossing n diff rows = n² transistors (the worst
	// case of ACE §4).
	const n = 4
	var boxes []frontend.Box
	for i := int64(0); i < n; i++ {
		boxes = append(boxes, box(tech.Diff, 0, i*100, n*100, i*100+40))
		boxes = append(boxes, box(tech.Poly, i*100, -20, i*100+40, n*100))
	}
	res := sweep(t, Options{}, boxes...)
	nl := res.Netlist
	if len(nl.Devices) != n*n {
		t.Fatalf("devices %d, want %d", len(nl.Devices), n*n)
	}
	// Each diff row is cut into n conducting segments (the first
	// channel starts at the row's left edge); poly columns stay whole.
	if got, want := len(nl.Nets), n*n+n; got != want {
		t.Fatalf("nets %d, want %d", got, want)
	}
}
