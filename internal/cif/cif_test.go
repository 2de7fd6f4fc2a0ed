package cif

import (
	"testing"

	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/tech"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	return f
}

func TestParseBox(t *testing.T) {
	f := mustParse(t, "L ND; B 400 1200 -600 -1400;\nE\n")
	if len(f.Top) != 1 {
		t.Fatalf("items: %d", len(f.Top))
	}
	it := f.Top[0]
	if it.Kind != ItemBox || it.Layer != tech.Diff {
		t.Fatalf("item %+v", it)
	}
	want := geom.R(-800, -2000, -400, -800)
	if it.Box != want {
		t.Fatalf("box %v, want %v", it.Box, want)
	}
}

func TestParseSeparatorsAndComments(t *testing.T) {
	// CIF is free-form: commas count as blanks, comments nest.
	f := mustParse(t, "(outer (inner) comment) L NM;B 10,20,0 0;(x)E")
	if len(f.Top) != 1 || f.Top[0].Layer != tech.Metal {
		t.Fatalf("items %+v", f.Top)
	}
}

func TestParseSymbolAndCall(t *testing.T) {
	src := `
DS 1 1 1;
9 inv;
L ND; B 100 100 0 0;
DF;
C 1 T 500 600;
C 1 M X T 100 0;
E
`
	f := mustParse(t, src)
	s := f.Symbols[1]
	if s == nil || s.Name != "inv" || len(s.Items) != 1 {
		t.Fatalf("symbol %+v", s)
	}
	if len(f.Top) != 2 {
		t.Fatalf("calls %d", len(f.Top))
	}
	// First call: translate only.
	p := f.Top[0].Trans.Apply(geom.Pt(10, 10))
	if p != geom.Pt(510, 610) {
		t.Fatalf("call 1 transform: %v", p)
	}
	// Second: mirror x then translate.
	p = f.Top[1].Trans.Apply(geom.Pt(10, 10))
	if p != geom.Pt(90, 10) {
		t.Fatalf("call 2 transform: %v", p)
	}
}

func TestParseScaleFactor(t *testing.T) {
	src := "DS 1 25 2;\nL ND; B 8 4 0 2;\nDF;\nC 1;\nE\n"
	f := mustParse(t, src)
	it := f.Symbols[1].Items[0]
	// 8*25/2 = 100 long, 4*25/2 = 50 wide, centred at (0, 25).
	want := geom.R(-50, 0, 50, 50)
	if it.Box != want {
		t.Fatalf("scaled box %v, want %v", it.Box, want)
	}
}

func TestParseRotatedBox(t *testing.T) {
	f := mustParse(t, "L ND; B 100 20 0 0 0 1;\nE\n") // direction +y: rotate 90°
	it := f.Top[0]
	if it.Box.W() != 20 || it.Box.H() != 100 {
		t.Fatalf("rotated box %v", it.Box)
	}
}

func TestParsePolygonWireFlash(t *testing.T) {
	src := `
L NP;
P 0 0 100 0 0 100;
W 20 0 0 200 0;
R 60 300 300;
E
`
	f := mustParse(t, src)
	if len(f.Top) != 3 {
		t.Fatalf("items %d", len(f.Top))
	}
	if f.Top[0].Kind != ItemPolygon || len(f.Top[0].Poly) != 3 {
		t.Fatalf("polygon %+v", f.Top[0])
	}
	if f.Top[1].Kind != ItemWire || f.Top[1].Wire.Width != 20 {
		t.Fatalf("wire %+v", f.Top[1])
	}
	if f.Top[2].Kind != ItemPolygon || len(f.Top[2].Poly) != 8 {
		t.Fatalf("flash should become octagon: %+v", f.Top[2])
	}
}

func TestParseLabels(t *testing.T) {
	f := mustParse(t, "94 VDD -2600 3800;\n94 OUT 0 0 NM;\nE\n")
	if len(f.Top) != 2 {
		t.Fatalf("labels %d", len(f.Top))
	}
	l := f.Top[0]
	if l.Kind != ItemLabel || l.Name != "VDD" || l.At != geom.Pt(-2600, 3800) || l.HasLayer {
		t.Fatalf("label %+v", l)
	}
	l = f.Top[1]
	if !l.HasLayer || l.Layer != tech.Metal {
		t.Fatalf("layered label %+v", l)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unterminated DS":   "DS 1;\nL ND; B 1 1 0 0;\n",
		"nested DS":         "DS 1;\nDS 2;\nDF;\nDF;\nE\n",
		"DF without DS":     "DF;\nE\n",
		"undefined call":    "C 7;\nE\n",
		"duplicate symbol":  "DS 1;DF;DS 1;DF;E\n",
		"recursive symbols": "DS 1; C 2;DF; DS 2; C 1;DF; C 1; E\n",
		"self-recursive":    "DS 1; C 1;DF; C 1;E\n",
		"bad box":           "L ND; B 10;\nE\n",
		"negative box":      "L ND; B -5 10 0 0;\nE\n",
		"tiny polygon":      "L ND; P 0 0 1 1;\nE\n",
		"missing semicolon": "L ND; B 1 1 0 0 E\n",
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

func TestGeometryBeforeLayerWarns(t *testing.T) {
	f := mustParse(t, "B 10 10 0 0;\nE\n")
	if len(f.Top) != 0 {
		t.Fatalf("unlayered geometry should be dropped: %+v", f.Top)
	}
	if !hasWarning(f, "no-layer") {
		t.Fatalf("expected a no-layer warning, got %v", f.Diagnostics.All())
	}
}

// hasWarning reports whether the parse recorded a Warning with code.
func hasWarning(f *File, code string) bool {
	for _, d := range f.Diagnostics.All() {
		if d.Severity == diag.Warning && d.Code == code {
			return true
		}
	}
	return false
}

func TestUnknownLayerWarns(t *testing.T) {
	f := mustParse(t, "L QQ; B 10 10 0 0;\nE\n")
	if len(f.Top) != 0 || !hasWarning(f, "unknown-layer") {
		t.Fatalf("geometry on unknown layer should warn and drop: %+v / %v", f.Top, f.Diagnostics.All())
	}
}

func TestStickyLayerAcrossSymbols(t *testing.T) {
	// The layer set before DS carries into the definition (CIF's
	// sticky-layer rule as implemented by the historical tools).
	src := "L NP;\nDS 1;\nB 10 10 0 0;\nDF;\nC 1;\nE\n"
	f := mustParse(t, src)
	if f.Symbols[1].Items[0].Layer != tech.Poly {
		t.Fatalf("sticky layer lost: %+v", f.Symbols[1].Items[0])
	}
}

func TestTextAfterEIgnored(t *testing.T) {
	f := mustParse(t, "L ND; B 10 10 0 0;\nE\nthis is junk @#$%\n")
	if len(f.Top) != 1 {
		t.Fatalf("items %d", len(f.Top))
	}
}

func TestSnappedRotationWarns(t *testing.T) {
	src := "DS 1; L ND; B 10 10 0 0; DF;\nC 1 R 3 1;\nE\n"
	f := mustParse(t, src)
	if !hasWarning(f, "snapped-rotation") {
		t.Fatalf("expected snap warning, got %v", f.Diagnostics.All())
	}
}

func TestRoundTrip(t *testing.T) {
	src := `
DS 1 1 1;
9 cell;
L ND;
B 400 1200 -600 -1400;
L NP;
P 0 0 100 0 100 100 0 100;
W 40 0 0 300 0 300 300;
DF;
DS 2 1 1;
C 1 T 1000 0;
C 1 M X T 2000 0;
C 1 R 0 1 T 0 2000;
DF;
C 2;
94 VDD 50 50 NM;
E
`
	f1 := mustParse(t, src)
	text := String(f1)
	f2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if len(f2.Symbols) != len(f1.Symbols) {
		t.Fatalf("symbol count changed: %d vs %d", len(f2.Symbols), len(f1.Symbols))
	}
	// Instantiated bounding boxes must agree.
	bb1, ok1 := BBoxItems(f1.Top, f1.Symbols, map[int]geom.Rect{})
	bb2, ok2 := BBoxItems(f2.Top, f2.Symbols, map[int]geom.Rect{})
	if ok1 != ok2 || bb1 != bb2 {
		t.Fatalf("bbox changed: %v/%v vs %v/%v\n%s", bb1, ok1, bb2, ok2, text)
	}
	// Transform semantics must survive exactly.
	for i := range f1.Symbols[2].Items {
		t1 := f1.Symbols[2].Items[i].Trans
		t2 := f2.Symbols[2].Items[i].Trans
		for _, p := range []geom.Point{geom.Pt(0, 0), geom.Pt(17, 33), geom.Pt(-5, 9)} {
			if t1.Apply(p) != t2.Apply(p) {
				t.Fatalf("call %d transform changed: %v vs %v", i, t1, t2)
			}
		}
	}
}

func TestSymbolBBox(t *testing.T) {
	src := `
DS 1; L ND; B 100 100 50 50; DF;
DS 2; C 1; C 1 T 200 0; DF;
C 2;
E
`
	f := mustParse(t, src)
	cache := map[int]geom.Rect{}
	bb, ok := SymbolBBox(2, f.Symbols, cache)
	if !ok || bb != geom.R(0, 0, 300, 100) {
		t.Fatalf("bbox %v ok=%v", bb, ok)
	}
	// Cache must now serve symbol 1 directly.
	if cached, ok := cache[1]; !ok || cached != geom.R(0, 0, 100, 100) {
		t.Fatalf("cache %v", cache)
	}
}

func TestTopSymbolDetection(t *testing.T) {
	src := "DS 1; L ND; B 10 10 0 0; DF;\nDS 2; C 1; DF;\nE\n"
	f := mustParse(t, src)
	top, warn := f.TopSymbol()
	if warn != "" {
		t.Fatalf("unexpected warning %q", warn)
	}
	if len(top) != 1 || top[0].SymbolID != 2 {
		t.Fatalf("top %+v", top)
	}
}

func TestDDIgnoredWithWarning(t *testing.T) {
	f := mustParse(t, "DD 5;\nL ND; B 1 1 0 0;\nE\n")
	if !hasWarning(f, "ignored-command") || len(f.Top) != 1 {
		t.Fatalf("DD handling: diagnostics=%v items=%d", f.Diagnostics.All(), len(f.Top))
	}
}
