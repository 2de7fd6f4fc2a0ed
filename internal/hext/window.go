// Package hext implements HEXT, the hierarchical circuit extractor
// built on top of ACE (the second paper in the CMU report).
//
// The front end transforms the CIF hierarchy into non-overlapping
// rectangular windows; identical windows are extracted once (a memo
// table keyed by canonical window content). Geometry-only windows go
// to the modified flat extractor, which also computes an interface:
// the rectangle edges touching the window boundary, per conducting
// layer, plus partial transistors whose channels touch the boundary.
// Adjacent windows are merged by Compose, which establishes net
// equivalences along the shared seam, merges partial transistors, and
// builds the new window's interface.
//
// Deviation from the paper (recorded in DESIGN.md §6): windows are
// fractured with guillotine cuts that avoid instance bounding boxes,
// so every window — including composed ones — is a rectangle and every
// compose joins two rectangles along a full shared edge. The paper's
// L-shaped "complex windows" never arise; the measured phenomena
// (window memoisation, compose-dominated run time, O(√N) ideal
// arrays) are unchanged.
package hext

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"ace/internal/cif"
	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/tech"
)

// witem is one window content element in window-relative coordinates.
// It holds no pointers (a call names its symbol and a label its name by
// index into the run's tables), so window item lists are memory the
// collector never scans.
type witem struct {
	kind  cif.ItemKind // ItemBox, ItemCall or ItemLabel
	layer tech.Layer   // ItemBox, ItemLabel
	lbL   bool         // ItemLabel: the label has a layer
	ref   int32        // ItemCall: index into env.symList; ItemLabel: into env.names
	// box is a box's rectangle, a call's instance bounding box, or the
	// empty rectangle at a label's point.
	box   geom.Rect
	trans geom.Transform // ItemCall
}

// point is a label item's position.
func (it *witem) point() geom.Point { return geom.Pt(it.box.XMin, it.box.YMin) }

// window is a rectangular region with contents relative to its origin.
type window struct {
	w, h  int64
	items []witem
}

// symInfo is what planning needs of a called symbol, worked out once
// per run: its definition, its bounding box in its own frame, and its
// structural hash (symHash).
type symInfo struct {
	def  *cif.Symbol
	bbox geom.Rect
	hash uint64
}

// symbol returns the index of a symbol's symInfo in e.symList, adding
// it on first use.
func (e *env) symbol(id int) int32 {
	if ref, ok := e.infos[id]; ok {
		return ref
	}
	bb, _ := cif.SymbolBBox(id, e.syms, e.bboxCache)
	ref := int32(len(e.symList))
	e.symList = append(e.symList, symInfo{def: e.syms[id], bbox: bb})
	// Entered before hashing, so a call cycle (which CIF forbids) reads
	// a zero hash instead of recursing without end.
	e.infos[id] = ref
	h := e.symHash(e.symList[ref].def) // may grow symList
	e.symList[ref].hash = h
	return ref
}

// callItem builds a call item placing symbol id by t. The instance's
// bounding box rides in the item's box, so cutting and splitting never
// recompute it.
func (e *env) callItem(id int, t geom.Transform) witem {
	ref := e.symbol(id)
	return witem{kind: cif.ItemCall, ref: ref, trans: t, box: t.ApplyRect(e.symList[ref].bbox)}
}

// labelItem builds a label item, entering its name in e.names.
func (e *env) labelItem(name string, at geom.Point, layer tech.Layer, hasLayer bool) witem {
	e.names = append(e.names, name)
	return witem{
		kind: cif.ItemLabel, layer: layer, lbL: hasLayer, ref: int32(len(e.names) - 1),
		box: geom.Rect{XMin: at.X, YMin: at.Y, XMax: at.X, YMax: at.Y},
	}
}

// newTopWindow builds the chip-level window from the design's top
// items. Top-level labels are diverted to the global overlay resolved
// during flattening — keeping them out of window contents preserves
// memoisation of otherwise-identical windows (labels inside symbol
// definitions stay in the contents; see expandOne).
func (e *env) newTopWindow(top []cif.Item) (window, geom.Point, bool) {
	bb, ok := cif.BBoxItems(top, e.syms, e.bboxCache)
	if !ok {
		return window{}, geom.Point{}, false
	}
	origin := geom.Pt(bb.XMin, bb.YMin)
	win := window{w: bb.W(), h: bb.H()}
	shift := geom.Translate(-origin.X, -origin.Y)
	for _, it := range top {
		switch it.Kind {
		case cif.ItemBox:
			win.items = append(win.items, witem{
				kind: cif.ItemBox, layer: it.Layer, box: it.Box.Translate(geom.Pt(-origin.X, -origin.Y)),
			})
		case cif.ItemCall:
			win.items = append(win.items, e.callItem(it.SymbolID, it.Trans.Then(shift)))
		case cif.ItemLabel:
			e.overlay = append(e.overlay, &overlayLabel{
				name: it.Name, at: it.At, layer: it.Layer, hasLayer: it.HasLayer,
			})
		case cif.ItemPolygon:
			for _, r := range it.Poly.Manhattanize(frontend.DefaultGrid) {
				win.items = append(win.items, witem{
					kind: cif.ItemBox, layer: it.Layer, box: r.Translate(geom.Pt(-origin.X, -origin.Y)),
				})
			}
		case cif.ItemWire:
			for _, r := range it.Wire.Boxes(frontend.DefaultGrid) {
				win.items = append(win.items, witem{
					kind: cif.ItemBox, layer: it.Layer, box: r.Translate(geom.Pt(-origin.X, -origin.Y)),
				})
			}
		}
	}
	return win, origin, true
}

// expandOne replaces every call in the window with its children
// (geometry, sub-calls, labels), keeping coordinates window-relative.
func (e *env) expandOne(win window) window {
	out := window{w: win.w, h: win.h}
	for _, it := range win.items {
		if it.kind != cif.ItemCall {
			out.items = append(out.items, it)
			continue
		}
		e.counters.CellsExpanded++
		for _, sub := range e.symList[it.ref].def.Items {
			switch sub.Kind {
			case cif.ItemBox:
				r := it.trans.ApplyRect(sub.Box)
				out.items = append(out.items, witem{kind: cif.ItemBox, layer: sub.Layer, box: r})
			case cif.ItemPolygon:
				for _, r := range sub.Poly.Apply(it.trans).Manhattanize(frontend.DefaultGrid) {
					out.items = append(out.items, witem{kind: cif.ItemBox, layer: sub.Layer, box: r})
				}
			case cif.ItemWire:
				w := geom.Wire{Width: sub.Wire.Width, Path: make([]geom.Point, len(sub.Wire.Path))}
				for i, p := range sub.Wire.Path {
					w.Path[i] = it.trans.Apply(p)
				}
				for _, r := range w.Boxes(frontend.DefaultGrid) {
					out.items = append(out.items, witem{kind: cif.ItemBox, layer: sub.Layer, box: r})
				}
			case cif.ItemCall:
				out.items = append(out.items, e.callItem(sub.SymbolID, sub.Trans.Then(it.trans)))
			case cif.ItemLabel:
				out.items = append(out.items, e.labelItem(sub.Name, it.trans.Apply(sub.At), sub.Layer, sub.HasLayer))
			}
		}
	}
	return out
}

// hasCalls reports whether the window still contains symbol instances.
func (w window) hasCalls() bool {
	for _, it := range w.items {
		if it.kind == cif.ItemCall {
			return true
		}
	}
	return false
}

// key builds the canonical memo key of the window: its size plus its
// sorted contents, with symbol ids replaced by content hashes so that
// structurally identical symbols share windows. The bytes are e.keyBuf's
// scratch, valid until its next use.
func (e *env) key(win window) []byte {
	k := &e.keyBuf
	k.reset()
	for i := range win.items {
		it := &win.items[i]
		switch it.kind {
		case cif.ItemBox:
			k.box(it.layer, it.box)
		case cif.ItemCall:
			k.call(e.symList[it.ref].hash, it.trans)
		case cif.ItemLabel:
			k.label(it.point(), it.layer, it.lbL, e.names[it.ref])
		}
	}
	var size [16]byte
	binary.LittleEndian.PutUint64(size[:], uint64(win.w))
	binary.LittleEndian.PutUint64(size[8:], uint64(win.h))
	return k.finish(size[:])
}

// canonKey assembles the canonical form shared by window memo keys and
// leaf content keys: a header, then the content records in sorted byte
// order, each prefixed by its 16-bit little-endian length. A top window's
// memo key is a persisted store address (a design's "f:" and "w:"
// entries), so the bytes must never change.
//
// A record is a kind byte followed by its fields. Box: the layer byte,
// then XMin, YMin, XMax, YMax as little-endian int64s. Call: the callee's
// structural hash as a little-endian uint64, then the transform's A..F
// as little-endian int64s. Label: X and Y as little-endian int64s, the
// layer byte, a has-layer byte, then the name. Records are collected
// typed and sorted by cmpKeyRec, whose order is the records' byte order,
// so no record is encoded until finish writes them out.
type canonKey struct {
	recs  []keyRec
	order []recOrder // finish's sort scratch
	size  int        // encoded bytes of the records, length prefixes included
	out   []byte     // finish's encoding scratch
}

// recOrder is a record's sort handle: hi and lo pack its kind, lead and
// the top seven bytes of w[0] as one 128-bit big-endian number, so two
// records whose prefixes differ compare in the order cmpKeyRec gives
// without touching the records; equal prefixes fall back to
// cmpKeyRec.
type recOrder struct {
	hi, lo uint64
	i      int32
}

// keyRec is one record in comparable form. Each little-endian field is
// held byte-reversed (bits.ReverseBytes64), so comparing it as an
// unsigned integer compares its encoded bytes lexicographically. lead is
// a box's layer, a call's hash or a label's X; w holds the rest of the
// fixed fields (a box's rectangle, a call's transform, a label's Y and
// then its layer and has-layer bytes as one 16-bit value); fields a kind
// does not use are zero.
type keyRec struct {
	kind byte
	lead uint64
	w    [6]uint64
	name string
}

// Encoded record lengths: a box, a call, and a label before its name.
const (
	boxRecLen   = 2 + 4*8
	callRecLen  = 1 + 7*8
	labelRecLen = 1 + 2*8 + 2
)

func (k *canonKey) reset() {
	k.recs = k.recs[:0]
	k.size = 0
}

func rev(v int64) uint64 { return bits.ReverseBytes64(uint64(v)) }

func (k *canonKey) box(layer tech.Layer, r geom.Rect) {
	k.recs = append(k.recs, keyRec{kind: 0, lead: uint64(uint8(layer)),
		w: [6]uint64{rev(r.XMin), rev(r.YMin), rev(r.XMax), rev(r.YMax)}})
	k.size += 2 + boxRecLen
}

func (k *canonKey) call(symHash uint64, t geom.Transform) {
	k.recs = append(k.recs, keyRec{kind: 1, lead: bits.ReverseBytes64(symHash),
		w: [6]uint64{rev(t.A), rev(t.B), rev(t.C), rev(t.D), rev(t.E), rev(t.F)}})
	k.size += 2 + callRecLen
}

func (k *canonKey) label(at geom.Point, layer tech.Layer, hasLayer bool, name string) {
	var l uint64
	if hasLayer {
		l = 1
	}
	k.recs = append(k.recs, keyRec{kind: 2, lead: rev(at.X),
		w: [6]uint64{rev(at.Y), uint64(uint8(layer))<<8 | l}, name: name})
	k.size += 2 + labelRecLen + len(name)
}

// cmpKeyRec orders records as bytes.Compare orders their encodings.
// Records of different kinds differ in their first byte. Within a kind
// every field before the name has a fixed width, so comparing fields in
// encoding order, each as the unsigned value of its bytes read
// big-endian, compares the bytes up to the name; a label's name is its
// record's tail, which strings.Compare orders as bytes.Compare does.
func cmpKeyRec(a, b *keyRec) int {
	if a.kind != b.kind {
		return cmp.Compare(a.kind, b.kind)
	}
	if a.lead != b.lead {
		return cmp.Compare(a.lead, b.lead)
	}
	for i := range a.w {
		if a.w[i] != b.w[i] {
			return cmp.Compare(a.w[i], b.w[i])
		}
	}
	return strings.Compare(a.name, b.name)
}

// finish sorts the records and returns the header followed by them, in
// scratch that the next finish reuses.
func (k *canonKey) finish(header []byte) []byte {
	order := k.order[:0]
	for i := range k.recs {
		r := &k.recs[i]
		order = append(order, recOrder{
			hi: uint64(r.kind)<<56 | r.lead>>8,
			lo: r.lead<<56 | r.w[0]>>8,
			i:  int32(i),
		})
	}
	slices.SortFunc(order, func(a, b recOrder) int {
		if a.hi != b.hi {
			return cmp.Compare(a.hi, b.hi)
		}
		if a.lo != b.lo {
			return cmp.Compare(a.lo, b.lo)
		}
		return cmpKeyRec(&k.recs[a.i], &k.recs[b.i])
	})
	k.order = order
	out := slices.Grow(k.out[:0], len(header)+k.size)
	out = append(out, header...)
	be := binary.BigEndian
	for _, o := range order {
		r := &k.recs[o.i]
		switch r.kind {
		case 0:
			out = append(out, boxRecLen, 0, 0, byte(r.lead))
			for _, v := range r.w[:4] {
				out = be.AppendUint64(out, v)
			}
		case 1:
			out = append(out, callRecLen, 0, 1)
			out = be.AppendUint64(out, r.lead)
			for _, v := range r.w {
				out = be.AppendUint64(out, v)
			}
		case 2:
			n := labelRecLen + len(r.name)
			out = append(out, byte(n), byte(n>>8), 2)
			out = be.AppendUint64(out, r.lead)
			out = be.AppendUint64(out, r.w[0])
			out = append(out, byte(r.w[1]>>8), byte(r.w[1]))
			out = append(out, r.name...)
		}
	}
	k.out = out
	return out
}

func appendI64(dst []byte, vs ...int64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// symHash returns a structural hash of a symbol's full expansion, so
// two symbols with identical contents get identical window keys. Each
// item's encoding is self-delimiting and carries every field extraction
// reads (a label's layer and has-layer flag included), so symbols that
// extract differently never share a hash by construction; only a 64-bit
// collision could merge them.
func (e *env) symHash(def *cif.Symbol) uint64 {
	var buf []byte
	appendPath := func(ps []geom.Point) {
		buf = binary.AppendUvarint(buf, uint64(len(ps)))
		for _, p := range ps {
			buf = appendI64(buf, p.X, p.Y)
		}
	}
	for _, it := range def.Items {
		switch it.Kind {
		case cif.ItemBox:
			buf = append(buf, 0, byte(it.Layer))
			buf = appendI64(buf, it.Box.XMin, it.Box.YMin, it.Box.XMax, it.Box.YMax)
		case cif.ItemCall:
			ref := e.symbol(it.SymbolID) // before indexing: it may grow symList
			buf = append(buf, 1)
			buf = binary.LittleEndian.AppendUint64(buf, e.symList[ref].hash)
			t := it.Trans
			buf = appendI64(buf, t.A, t.B, t.C, t.D, t.E, t.F)
		case cif.ItemLabel:
			var l byte
			if it.HasLayer {
				l = 1
			}
			buf = append(buf, 2, byte(it.Layer), l)
			buf = binary.AppendUvarint(buf, uint64(len(it.Name)))
			buf = append(buf, it.Name...)
			buf = appendI64(buf, it.At.X, it.At.Y)
		case cif.ItemPolygon:
			buf = append(buf, 3, byte(it.Layer))
			appendPath(it.Poly)
		case cif.ItemWire:
			buf = append(buf, 4, byte(it.Layer))
			buf = appendI64(buf, it.Wire.Width)
			appendPath(it.Wire.Path)
		}
	}
	return fnv64(buf)
}

func fnv64(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// cutScratch is chooseCut's working memory, kept in the run's env: one
// axis's candidate cut lines and the instances' extents along it.
type cutScratch struct {
	cands []int64
	iv    [][2]int64
}

// chooseCut finds a guillotine cut that avoids every instance bounding
// box. The default (balanced) strategy prefers the cut closest to the
// window's centre along its longer axis, giving the logarithmic
// recursion depth the ideal-array analysis needs; the min-cut strategy
// (HEXT §6's "more intelligent fracturing algorithm") prefers the cut
// that splits the fewest geometry boxes, minimising the seam contents
// the compose routine must match. It returns the axis ('x' means a
// vertical cut at the returned coordinate), the coordinate, and
// whether a cut exists.
func (e *env) chooseCut(win window) (axis byte, at int64, ok bool) {
	// seamCost counts the geometry boxes a cut would split — the
	// min-cut strategy's objective.
	seamCost := func(axis byte, at int64) int64 {
		var cost int64
		for _, it := range win.items {
			if it.kind != cif.ItemBox {
				continue
			}
			if axis == 'x' {
				if it.box.XMin < at && at < it.box.XMax {
					cost++
				}
			} else {
				if it.box.YMin < at && at < it.box.YMax {
					cost++
				}
			}
		}
		return cost
	}
	// best gathers the axis's candidates (each instance's two edges, in
	// item order) and the instances' open extents into the run's
	// scratch, then scores the candidates, then the middle, in order;
	// the first of equal scores wins. A candidate is valid strictly
	// inside the window's span and outside every open extent, which are
	// merged once so each check is a binary search.
	sc := &e.cut
	best := func(axis byte, span int64) (int64, bool) {
		cands, iv := sc.cands[:0], sc.iv[:0]
		for i := range win.items {
			it := &win.items[i]
			if it.kind != cif.ItemCall {
				continue
			}
			lo, hi := it.box.XMin, it.box.XMax
			if axis == 'y' {
				lo, hi = it.box.YMin, it.box.YMax
			}
			cands = append(cands, lo, hi)
			iv = append(iv, [2]int64{lo, hi})
		}
		mid := span / 2
		cands = append(cands, mid)
		sc.cands, sc.iv = cands, iv
		blocked := mergeOpen(iv)
		found := false
		var bestAt, bestScore int64
		for _, c := range cands {
			if c <= 0 || c >= span || covers(blocked, c) {
				continue
			}
			d := c - mid
			if d < 0 {
				d = -d
			}
			score := d
			if e.fracture == FractureMinCut {
				// Seam cost dominates; distance to middle tie-breaks
				// (scaled down so it never outweighs one split box).
				score = seamCost(axis, c)*span + d
			}
			if !found || score < bestScore {
				found, bestAt, bestScore = true, c, score
			}
		}
		return bestAt, found
	}

	// Prefer splitting the longer dimension for balanced recursion.
	tryX := func() (byte, int64, bool) {
		if at, ok := best('x', win.w); ok {
			return 'x', at, true
		}
		return 0, 0, false
	}
	tryY := func() (byte, int64, bool) {
		if at, ok := best('y', win.h); ok {
			return 'y', at, true
		}
		return 0, 0, false
	}
	if win.w >= win.h {
		if a, v, ok := tryX(); ok {
			return a, v, true
		}
		return tryY()
	}
	if a, v, ok := tryY(); ok {
		return a, v, true
	}
	return tryX()
}

// mergeOpen sorts the open intervals (lo, hi) in place and returns
// their union as disjoint intervals in ascending order, dropping empty
// ones. Abutting intervals stay apart: their shared endpoint lies in
// neither.
func mergeOpen(iv [][2]int64) [][2]int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	out := iv[:0]
	for _, s := range iv {
		if s[0] >= s[1] {
			continue
		}
		if n := len(out); n > 0 && s[0] < out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], s[1])
			continue
		}
		out = append(out, s)
	}
	return out
}

// covers reports whether at lies strictly inside one of the disjoint,
// ascending intervals mergeOpen returns.
func covers(merged [][2]int64, at int64) bool {
	i := sort.Search(len(merged), func(i int) bool { return merged[i][0] >= at })
	return i > 0 && at < merged[i-1][1]
}

// splitWindow divides the window at the cut, clipping geometry and
// assigning instances and labels to the proper side. For axis 'x', a
// is the left part and b the right part (b's items are re-based to its
// origin). The cut is guaranteed by chooseCut not to straddle any
// instance bounding box.
func (e *env) splitWindow(win window, axis byte, at int64) (a, b window) {
	var shiftB geom.Point
	if axis == 'x' {
		a = window{w: at, h: win.h}
		b = window{w: win.w - at, h: win.h}
		shiftB = geom.Pt(-at, 0)
	} else {
		a = window{w: win.w, h: at}
		b = window{w: win.w, h: win.h - at}
		shiftB = geom.Pt(0, -at)
	}
	lineOf := func(r geom.Rect) (lo, hi int64) {
		if axis == 'x' {
			return r.XMin, r.XMax
		}
		return r.YMin, r.YMax
	}
	// sides reports which parts an item belongs to. A box straddling
	// the cut goes to both, clipped. chooseCut guarantees no instance
	// straddles it; putting one on the low side keeps extraction total
	// if it somehow does. A label exactly on the cut stays with the low
	// side, whose boundary (inclusive in the leaf sweep) it sits on.
	sides := func(it *witem) (inA, inB bool) {
		switch it.kind {
		case cif.ItemBox:
			lo, hi := lineOf(it.box)
			return lo < at, hi > at
		case cif.ItemCall:
			lo, hi := lineOf(it.box)
			inB = hi > at && lo >= at
			return !inB, inB
		case cif.ItemLabel:
			inA = it.box.XMin <= at
			if axis == 'y' {
				inA = it.box.YMin <= at
			}
			return inA, !inA
		}
		return false, false
	}
	// Count each side first, so each item slice is allocated once
	// rather than regrown as it fills. Items are visited in place and
	// copied once, straight into their side.
	var na, nb int
	for i := range win.items {
		inA, inB := sides(&win.items[i])
		if inA {
			na++
		}
		if inB {
			nb++
		}
	}
	a.items = make([]witem, 0, na)
	b.items = make([]witem, 0, nb)
	for i := range win.items {
		it := &win.items[i]
		inA, inB := sides(it)
		if inA {
			a.items = append(a.items, *it)
			if it.kind == cif.ItemBox {
				clipped := &a.items[len(a.items)-1].box
				if axis == 'x' {
					clipped.XMax = min(clipped.XMax, at)
				} else {
					clipped.YMax = min(clipped.YMax, at)
				}
			}
		}
		if inB {
			b.items = append(b.items, *it)
			moved := &b.items[len(b.items)-1]
			switch it.kind {
			case cif.ItemBox:
				if axis == 'x' {
					moved.box.XMin = max(moved.box.XMin, at)
				} else {
					moved.box.YMin = max(moved.box.YMin, at)
				}
				moved.box = moved.box.Translate(shiftB)
			case cif.ItemCall:
				moved.trans = it.trans.Then(geom.Translate(shiftB.X, shiftB.Y))
				moved.box = it.box.Translate(shiftB)
			case cif.ItemLabel:
				moved.box = it.box.Translate(shiftB)
			}
		}
	}
	return a, b
}
