package hext

import (
	"ace/internal/cif"
	"ace/internal/diag"
	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/netlist"
	"ace/internal/scan"
)

// extractLeaf runs the modified flat extractor over a geometry-only
// window: ACE's scanline sweep with geometry keeping enabled, followed
// by interface computation — "the modified version of ACE has extra
// code to output an interface for each window that it analyzes"
// (HEXT §3).
//
// The sweep itself is content-addressed: the window's contents are
// rebased to their bounding-box anchor, so two windows whose contents
// differ only by translation (different margins inside their frames)
// share one sweep through the content cache. The frame-dependent part
// — boundary edges and partial-transistor slots — is recomputed per
// window from the cached netlist. The result carries the sweep's
// findings.
func (e *env) extractLeaf(win window) *winResult {
	boxes, labels, anchor := e.leafContent(win)
	if e.sweeps == nil {
		e.counters.LeafSweeps++
		return buildLeafResult(win, runLeafSweep(boxes, labels, anchor, e.pool), anchor)
	}
	// ck is key scratch: the lookup reads it in place, and only a miss
	// keeps it as a string.
	ck := contentKey(&e.keyBuf, boxes, labels, anchor)
	sw, ok := e.sweeps[string(ck)]
	if ok {
		e.counters.CacheHits++
	} else {
		e.counters.CacheMisses++
		e.counters.LeafSweeps++
		sw = runLeafSweep(boxes, labels, anchor, e.pool)
		e.sweeps[string(ck)] = sw
	}
	return buildLeafResult(win, sw, anchor)
}

// sweep is one entry of the content cache: the netlist of a window
// content in anchored coordinates, plus the sweep's findings.
// Recomputing the frame-dependent part from it costs O(kept geometry)
// instead of the sweep's O(n log n).
type sweep struct {
	nl    *netlist.Netlist
	diags []diag.Diagnostic
}

// leafContent gathers a window's geometry and labels (in window-frame
// coordinates) plus the anchor: the lower-left corner of the content's
// bounding box. An empty window anchors at the origin.
func (e *env) leafContent(win window) (boxes []frontend.Box, labels []frontend.Label, anchor geom.Point) {
	first := true
	touch := func(x, y int64) {
		if first {
			anchor = geom.Pt(x, y)
			first = false
			return
		}
		if x < anchor.X {
			anchor.X = x
		}
		if y < anchor.Y {
			anchor.Y = y
		}
	}
	for _, it := range win.items {
		switch it.kind {
		case cif.ItemBox:
			if it.box.Empty() {
				continue
			}
			boxes = append(boxes, frontend.Box{Layer: it.layer, Rect: it.box})
			touch(it.box.XMin, it.box.YMin)
		case cif.ItemLabel:
			at := it.point()
			labels = append(labels, frontend.Label{
				Name: e.names[it.ref], At: at, Layer: it.layer, HasLayer: it.lbL,
			})
			touch(at.X, at.Y)
		}
	}
	return boxes, labels, anchor
}

// contentKey builds the canonical, translation-invariant key of a leaf
// window's content in the scratch k: its sorted anchored records,
// frame-free. Two windows get equal keys exactly when their contents
// coincide after rebasing each to its own anchor — the equivalence class
// the content cache shares sweeps across. The bytes are k's scratch,
// valid until its next use.
func contentKey(k *canonKey, boxes []frontend.Box, labels []frontend.Label, anchor geom.Point) []byte {
	k.reset()
	shift := geom.Pt(-anchor.X, -anchor.Y)
	for _, bx := range boxes {
		k.box(bx.Layer, bx.Rect.Translate(shift))
	}
	for _, lb := range labels {
		k.label(lb.At.Add(shift), lb.Layer, lb.HasLayer, lb.Name)
	}
	return k.finish(nil)
}

// runLeafSweep sweeps the content in anchored coordinates. The boxes
// are put into a total order first (scan.SortTopDown), so the sweep's
// output depends only on the content multiset — required for cached
// results to be interchangeable with fresh ones regardless of the
// order the window assembled its items in.
func runLeafSweep(boxes []frontend.Box, labels []frontend.Label, anchor geom.Point, pool *scan.Pool) sweep {
	shift := geom.Pt(-anchor.X, -anchor.Y)
	ab := pool.GetBoxBuf()
	for _, bx := range boxes {
		ab = append(ab, frontend.Box{Layer: bx.Layer, Rect: bx.Rect.Translate(shift)})
	}
	scan.SortTopDown(ab)
	al := make([]frontend.Label, len(labels))
	for i, lb := range labels {
		al[i] = lb
		al[i].At = lb.At.Add(shift)
	}
	res, err := scan.Sweep(scan.NewBoxSource(ab), scan.Options{
		KeepGeometry: true,
		Labels:       al,
		Pool:         pool,
	})
	if err != nil {
		// The sweep only fails on internal invariant violations;
		// surface it as an empty window plus a leaf-sweep-failed
		// Warning. The failed sweeper (and the box buffer it
		// references) is dropped, not repooled.
		return sweep{nl: &netlist.Netlist{}, diags: []diag.Diagnostic{
			diag.New(diag.Warning, guard.StageHextLeaf, "leaf-sweep-failed", err.Error()),
		}}
	}
	// Finish copied the geometry it kept, so the anchored input run is
	// free again.
	pool.PutBoxBuf(ab)
	return sweep{nl: res.Netlist, diags: res.Diagnostics}
}

// buildLeafResult computes the frame-dependent half of a leaf window
// from an (anchored) sweep: interface edges for net geometry on the
// boundary and partial-transistor slots for channels touching it.
func buildLeafResult(win window, sw sweep, anchor geom.Point) *winResult {
	nl := sw.nl
	r := &winResult{
		w: win.w, h: win.h,
		leaf:     &leafData{nl: nl, anchor: anchor, diags: sw.diags},
		flat:     leafCounts(nl),
		findings: len(sw.diags) > 0,
	}
	r.netCount = len(nl.Nets)

	frame := geom.Rect{XMin: 0, YMin: 0, XMax: win.w, YMax: win.h}

	// Net interface segments: net geometry touching the boundary.
	for i := range nl.Nets {
		for _, g := range nl.Nets[i].Geometry {
			el, ok := elayerOf(g.Layer)
			if !ok {
				continue
			}
			r.addBoundaryEdges(el, g.Rect.Translate(anchor), frame, int32(i))
		}
	}

	// Partial transistors: devices whose channel touches the boundary.
	for di := range nl.Devices {
		slot := -1
		for _, cr := range nl.Devices[di].Geometry {
			cr = cr.Translate(anchor)
			if touchesFrame(cr, frame) {
				if slot < 0 {
					slot = len(r.leaf.partDevs)
					r.leaf.partDevs = append(r.leaf.partDevs, di)
				}
				r.addBoundaryEdges(eChan, cr, frame, int32(slot))
			}
		}
	}
	r.partCount = len(r.leaf.partDevs)
	return r
}

// addBoundaryEdges appends interface edges for the parts of rect r
// lying on the window frame.
func (w *winResult) addBoundaryEdges(el elayer, r geom.Rect, frame geom.Rect, ref int32) {
	if r.XMin == frame.XMin {
		w.edges = append(w.edges, edge{layer: el, face: faceL, lo: r.YMin, hi: r.YMax, ref: ref})
	}
	if r.XMax == frame.XMax {
		w.edges = append(w.edges, edge{layer: el, face: faceR, lo: r.YMin, hi: r.YMax, ref: ref})
	}
	if r.YMin == frame.YMin {
		w.edges = append(w.edges, edge{layer: el, face: faceB, lo: r.XMin, hi: r.XMax, ref: ref})
	}
	if r.YMax == frame.YMax {
		w.edges = append(w.edges, edge{layer: el, face: faceT, lo: r.XMin, hi: r.XMax, ref: ref})
	}
}

func touchesFrame(r geom.Rect, frame geom.Rect) bool {
	return r.XMin == frame.XMin || r.XMax == frame.XMax ||
		r.YMin == frame.YMin || r.YMax == frame.YMax
}
