package extract

import (
	"fmt"
	"strings"
	"testing"

	"ace/internal/cif"
)

// TestDeepHierarchy: a 500-level chain of single-call symbols must
// instantiate without blowing the stack or the heap.
func TestDeepHierarchy(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("DS 1; L ND; B 100 100 0 0; DF;\n")
	const depth = 500
	for i := 2; i <= depth; i++ {
		fmt.Fprintf(&sb, "DS %d; C %d T 10 10; DF;\n", i, i-1)
	}
	fmt.Fprintf(&sb, "C %d;\nE\n", depth)
	res, err := unpooled.CIF(nil, []byte(sb.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Nets) != 1 {
		t.Fatalf("nets %d", len(res.Netlist.Nets))
	}
	if res.Frontend.CellsExpanded != depth {
		t.Fatalf("expanded %d, want %d", res.Frontend.CellsExpanded, depth)
	}
}

// TestWideFanout: one symbol instantiated 10000 times.
func TestWideFanout(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("DS 1; L NM; B 100 100 0 0; DF;\n")
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&sb, "C 1 T %d %d;\n", (i%100)*200, (i/100)*200)
	}
	sb.WriteString("E\n")
	res, err := unpooled.CIF(nil, []byte(sb.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The 100×100 grid of 100-unit boxes at 200 pitch: all disjoint.
	if len(res.Netlist.Nets) != 10000 {
		t.Fatalf("nets %d", len(res.Netlist.Nets))
	}
}

// TestHugeCoordinates: far-flung geometry must not overflow.
func TestHugeCoordinates(t *testing.T) {
	src := `
L ND; B 1000 1000 2000000000 2000000000;
L NP; B 3000 200 2000000000 2000000000;
L NM; B 1000 1000 -2000000000 -2000000000;
E
`
	res, err := unpooled.CIF(nil, []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Devices) != 1 {
		t.Fatalf("devices %d", len(res.Netlist.Devices))
	}
}

// TestManyTinyNets: a large all-disjoint design stresses the
// finalisation path.
func TestManyTinyNets(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("L NM;\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "B 50 50 %d %d;\n", (i%100)*200, (i/100)*200)
	}
	sb.WriteString("E\n")
	res, err := unpooled.CIF(nil, []byte(sb.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Nets) != 5000 {
		t.Fatalf("nets %d", len(res.Netlist.Nets))
	}
}

// TestZeroHeightGeometryDropped: degenerate boxes vanish silently.
func TestZeroHeightGeometryDropped(t *testing.T) {
	res, err := unpooled.CIF(nil, []byte("L ND; B 0 100 0 0; B 100 0 0 0; B 100 100 500 500;\nE\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Nets) != 1 {
		t.Fatalf("nets %d", len(res.Netlist.Nets))
	}
}

// TestSharedSymbolAcrossLayers: the same symbol called under different
// sticky layers keeps per-item layers fixed at definition time.
func TestStickyLayerInstantiation(t *testing.T) {
	src := `
DS 1; B 100 100 0 0; DF;
L ND;
C 1;
L NP;
C 1 T 500 0;
E
`
	f, err := cif.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	// The symbol body was parsed before any L command, so its box was
	// dropped with a warning at parse time; the design ends up with no
	// geometry at all and extraction reports that cleanly.
	if ds := f.Diagnostics.All(); len(ds) != 1 || ds[0].Code != "no-layer" {
		t.Fatalf("expected an unlayered-geometry warning, got %v", ds)
	}
	if _, err := File(f, Options{}); err == nil {
		t.Fatal("expected the empty-design error")
	}
}
