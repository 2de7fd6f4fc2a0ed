package hext

import (
	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// face identifies one side of a (rectangular) window.
type face int8

const (
	faceL face = iota
	faceR
	faceB
	faceT
	numFaces
)

// elayer is the interface-segment layer: the three conducting layers
// plus the channel pseudo-layer carrying partial transistors.
type elayer int8

const (
	eMetal elayer = iota
	ePoly
	eDiff
	eChan
)

func elayerOf(l tech.Layer) (elayer, bool) {
	switch l {
	case tech.Metal:
		return eMetal, true
	case tech.Poly:
		return ePoly, true
	case tech.Diff:
		return eDiff, true
	}
	return 0, false
}

// edge is one interface-segment list element: a rectangle edge lying
// on a window face, carrying the local net (or, for eChan, the local
// partial-transistor index) it belongs to.
type edge struct {
	lo, hi int64 // span along the face: y for L/R, x for B/T
	ref    int32 // local net index, or partial index for eChan
	layer  elayer
	face   face
}

// winResult is the extracted circuit and interface of one unique
// window. Composed results reference their children rather than
// copying them (HEXT §3), so the memo table turns the window tree into
// a DAG; flattening instantiates it.
type winResult struct {
	w, h int64

	edges     []edge
	netCount  int
	partCount int

	// flat counts what flattening one instance of this window adds to
	// the builder, so the flatten can reserve the whole design up front.
	flat flatCounts

	// findings reports whether a leaf under this window carries
	// diagnostics, so the run's walk for them (leafFindings) skips every
	// window without any.
	findings bool

	leaf *leafData
	comp *compData
}

// flatCounts are the builder records flattening one window instance
// makes: net elements, device elements (each with one gate record) and
// terminal records, summed over every leaf instance below it.
type flatCounts struct{ nets, devs, terms int64 }

// leafCounts are the records flattenLeaf makes for one instance of nl.
func leafCounts(nl *netlist.Netlist) flatCounts {
	fc := flatCounts{nets: int64(len(nl.Nets)), devs: int64(len(nl.Devices))}
	for i := range nl.Devices {
		fc.terms += int64(len(nl.Devices[i].Terminals))
	}
	return fc
}

// composedCounts are the records flatten makes for one instance of a
// composed window: its children's, plus a terminal per partial term.
func composedCounts(c *compData) flatCounts {
	a, b := c.kids[0].flat, c.kids[1].flat
	return flatCounts{
		nets:  a.nets + b.nets,
		devs:  a.devs + b.devs,
		terms: a.terms + b.terms + int64(len(c.partTerms)),
	}
}

// leafData is a geometry-only window extracted by the modified flat
// extractor.
type leafData struct {
	nl *netlist.Netlist
	// anchor is the lower-left corner of the content's bounding box in
	// window-frame coordinates. The netlist is swept in anchored
	// coordinates (content rebased so the anchor is the origin), which
	// makes the sweep shareable between windows whose contents differ
	// only by translation; consumers add the anchor back to return to
	// the window frame.
	anchor geom.Point
	// partDevs lists the indices of devices whose channel touches the
	// window boundary (the window's partial transistors); partial
	// slot k corresponds to nl.Devices[partDevs[k]].
	partDevs []int
	// diags are the sweep's findings, in anchored coordinates.
	diags []diag.Diagnostic
}

// ref addresses a net or partial in one of a composed window's two
// children.
type ref struct {
	child int8
	idx   int32
}

type partTerm struct {
	part ref
	net  ref
	edge int64
}

// overlayLabel is a top-level label resolved during flattening rather
// than carried in window contents (which would defeat memoisation).
type overlayLabel struct {
	name     string
	at       geom.Point
	layer    tech.Layer
	hasLayer bool
	matched  bool  // net is set: the flatten found the label's net
	net      int32 // builder net element the label names
}

// labelNet finds the net owning a point in a leaf netlist, preferring
// metal, then poly, then diffusion — ACE's rule.
func labelNet(nl *netlist.Netlist, p geom.Point, lb *overlayLabel) (int, bool) {
	best := -1
	bestPref := 99
	for i := range nl.Nets {
		for _, g := range nl.Nets[i].Geometry {
			if lb.hasLayer && g.Layer != lb.layer {
				continue
			}
			if !g.Rect.Contains(p) {
				continue
			}
			pref := layerPref(g.Layer)
			if pref < bestPref {
				best, bestPref = i, pref
			}
		}
	}
	return best, best >= 0
}

func layerPref(l tech.Layer) int {
	switch l {
	case tech.Metal:
		return 0
	case tech.Poly:
		return 1
	case tech.Diff:
		return 2
	}
	return 3
}

// compData records how two child windows compose: placements, the net
// equivalences and partial-transistor merges established along the
// seam, and the parent's export tables.
type compData struct {
	kids [2]*winResult
	at   [2]geom.Point

	netEquivs  [][2]ref
	partEquivs [][2]ref
	partTerms  []partTerm

	// parentNets[i] is the child net that parent net i stands for;
	// likewise parentParts for still-open partial transistors.
	parentNets  []ref
	parentParts []ref
}
