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
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
	"strings"

	"ace/internal/cif"
	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/tech"
)

// item is one window content element in window-relative coordinates.
type witem struct {
	kind  cif.ItemKind // ItemBox, ItemCall or ItemLabel
	layer tech.Layer
	box   geom.Rect // ItemBox

	symID int // ItemCall: original symbol id
	trans geom.Transform

	name string     // ItemLabel
	at   geom.Point // ItemLabel
	lbL  bool       // label has layer
}

// window is a rectangular region with contents relative to its origin.
type window struct {
	w, h  int64
	items []witem
}

// instBBox returns the bounding box of a call item (window-relative).
func (e *env) instBBox(it witem) geom.Rect {
	bb, _ := cif.SymbolBBox(it.symID, e.syms, e.bboxCache)
	return it.trans.ApplyRect(bb)
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
			win.items = append(win.items, witem{
				kind: cif.ItemCall, symID: it.SymbolID, trans: it.Trans.Then(shift),
			})
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
		sym := e.syms[it.symID]
		for _, sub := range sym.Items {
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
				out.items = append(out.items, witem{
					kind: cif.ItemCall, symID: sub.SymbolID, trans: sub.Trans.Then(it.trans),
				})
			case cif.ItemLabel:
				out.items = append(out.items, witem{
					kind: cif.ItemLabel, name: sub.Name, at: it.trans.Apply(sub.At),
					layer: sub.Layer, lbL: sub.HasLayer,
				})
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
// structurally identical symbols share windows.
func (e *env) key(win window) string {
	k := &e.keyBuf
	k.reset()
	for _, it := range win.items {
		switch it.kind {
		case cif.ItemBox:
			k.box(it.layer, it.box)
		case cif.ItemCall:
			k.call(e.symHash(it.symID), it.trans)
		case cif.ItemLabel:
			k.label(it.at, it.layer, it.lbL, it.name)
		}
	}
	var size [16]byte
	putI64(size[:], win.w, win.h)
	return k.finish(size[:])
}

// canonKey assembles the canonical form shared by window memo keys and
// leaf content keys: a header, then the content records in sorted byte
// order, each prefixed by its 16-bit little-endian length. Records are
// written back to back into one buffer and sorted through an index,
// not allocated one by one. The bytes are persisted store addresses
// ("w:", "s:" and "f:" entries) and must never change.
type canonKey struct {
	buf  []byte    // the records, back to back
	recs []recSpan // one per record, in buf order until finish sorts them
}

type recSpan struct{ lo, hi int }

// Record lengths: a box record, and a label record before its name.
const (
	boxRecLen   = 2 + 4*8
	labelRecLen = 1 + 2*8 + 2
)

func (k *canonKey) reset() {
	k.buf = k.buf[:0]
	k.recs = k.recs[:0]
}

func (k *canonKey) box(layer tech.Layer, r geom.Rect) {
	lo := len(k.buf)
	k.buf = append(k.buf, 0, byte(layer))
	k.buf = appendI64(k.buf, r.XMin, r.YMin, r.XMax, r.YMax)
	k.recs = append(k.recs, recSpan{lo, len(k.buf)})
}

func (k *canonKey) call(symHash uint64, t geom.Transform) {
	lo := len(k.buf)
	k.buf = append(k.buf, 1)
	k.buf = binary.LittleEndian.AppendUint64(k.buf, symHash)
	k.buf = appendI64(k.buf, t.A, t.B, t.C, t.D, t.E, t.F)
	k.recs = append(k.recs, recSpan{lo, len(k.buf)})
}

func (k *canonKey) label(at geom.Point, layer tech.Layer, hasLayer bool, name string) {
	lo := len(k.buf)
	k.buf = append(k.buf, 2)
	k.buf = appendI64(k.buf, at.X, at.Y)
	var l byte
	if hasLayer {
		l = 1
	}
	k.buf = append(k.buf, byte(layer), l)
	k.buf = append(k.buf, name...)
	k.recs = append(k.recs, recSpan{lo, len(k.buf)})
}

// finish sorts the records and returns the header followed by them.
func (k *canonKey) finish(header []byte) string {
	slices.SortFunc(k.recs, func(a, b recSpan) int {
		return bytes.Compare(k.buf[a.lo:a.hi], k.buf[b.lo:b.hi])
	})
	var out strings.Builder
	out.Grow(len(header) + 2*len(k.recs) + len(k.buf))
	out.Write(header)
	for _, r := range k.recs {
		n := r.hi - r.lo
		out.WriteByte(byte(n))
		out.WriteByte(byte(n >> 8))
		out.Write(k.buf[r.lo:r.hi])
	}
	return out.String()
}

func appendI64(dst []byte, vs ...int64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func putI64(dst []byte, vs ...int64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
	}
}

// symHash returns a structural hash of a symbol's full expansion, so
// two symbols with identical contents get identical window keys.
func (e *env) symHash(id int) uint64 {
	if h, ok := e.symHashes[id]; ok {
		return h
	}
	e.symHashes[id] = 0 // cycle guard; CIF semantics forbid cycles anyway
	var buf []byte
	sym := e.syms[id]
	for _, it := range sym.Items {
		switch it.Kind {
		case cif.ItemBox:
			var b [34]byte
			b[0] = 0
			b[1] = byte(it.Layer)
			putI64(b[2:], it.Box.XMin, it.Box.YMin, it.Box.XMax, it.Box.YMax)
			buf = append(buf, b[:]...)
		case cif.ItemCall:
			var b [57]byte
			b[0] = 1
			binary.LittleEndian.PutUint64(b[1:], e.symHash(it.SymbolID))
			t := it.Trans
			putI64(b[9:], t.A, t.B, t.C, t.D, t.E, t.F)
			buf = append(buf, b[:]...)
		case cif.ItemLabel:
			buf = append(buf, 2)
			buf = append(buf, it.Name...)
			var b [16]byte
			putI64(b[:], it.At.X, it.At.Y)
			buf = append(buf, b[:]...)
		case cif.ItemPolygon:
			buf = append(buf, 3)
			for _, p := range it.Poly {
				var b [16]byte
				putI64(b[:], p.X, p.Y)
				buf = append(buf, b[:]...)
			}
		case cif.ItemWire:
			buf = append(buf, 4)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(it.Wire.Width))
			buf = append(buf, b[:]...)
			for _, p := range it.Wire.Path {
				var c [16]byte
				putI64(c[:], p.X, p.Y)
				buf = append(buf, c[:]...)
			}
		}
	}
	h := fnv64(buf)
	e.symHashes[id] = h
	return h
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

// fnv64str is fnv64 over a string without converting it to a byte
// slice (the content cache hashes canonical keys on the hot path).
func fnv64str(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
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
	n := 0
	for _, it := range win.items {
		if it.kind == cif.ItemCall {
			n++
		}
	}
	// One spare slot each for the middle candidate best appends.
	xs, ys := make([]int64, 0, 2*n+1), make([]int64, 0, 2*n+1)
	xiv, yiv := make([][2]int64, 0, n), make([][2]int64, 0, n)
	for _, it := range win.items {
		if it.kind != cif.ItemCall {
			continue
		}
		bb := e.instBBox(it)
		xs = append(xs, bb.XMin, bb.XMax)
		ys = append(ys, bb.YMin, bb.YMax)
		xiv = append(xiv, [2]int64{bb.XMin, bb.XMax})
		yiv = append(yiv, [2]int64{bb.YMin, bb.YMax})
	}
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
	// best scores the candidates, then the middle, in order; the first
	// of equal scores wins. A candidate is valid strictly inside the
	// window's span and outside every instance's open extent iv, which
	// is merged once so each check is a binary search.
	best := func(axis byte, cands []int64, iv [][2]int64, span int64) (int64, bool) {
		blocked := mergeOpen(iv)
		mid := span / 2
		found := false
		var bestAt, bestScore int64
		for _, c := range append(cands, mid) {
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
		if at, ok := best('x', xs, xiv, win.w); ok {
			return 'x', at, true
		}
		return 0, 0, false
	}
	tryY := func() (byte, int64, bool) {
		if at, ok := best('y', ys, yiv, win.h); ok {
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
	sides := func(it witem) (inA, inB bool) {
		switch it.kind {
		case cif.ItemBox:
			lo, hi := lineOf(it.box)
			return lo < at, hi > at
		case cif.ItemCall:
			lo, hi := lineOf(e.instBBox(it))
			inB = hi > at && lo >= at
			return !inB, inB
		case cif.ItemLabel:
			inA = it.at.X <= at
			if axis == 'y' {
				inA = it.at.Y <= at
			}
			return inA, !inA
		}
		return false, false
	}
	// Count each side first, so each item slice is allocated once
	// rather than regrown as it fills.
	var na, nb int
	for _, it := range win.items {
		inA, inB := sides(it)
		if inA {
			na++
		}
		if inB {
			nb++
		}
	}
	a.items = make([]witem, 0, na)
	b.items = make([]witem, 0, nb)
	for _, it := range win.items {
		inA, inB := sides(it)
		if inA {
			clipped := it
			if it.kind == cif.ItemBox {
				if axis == 'x' {
					clipped.box.XMax = min(it.box.XMax, at)
				} else {
					clipped.box.YMax = min(it.box.YMax, at)
				}
			}
			a.items = append(a.items, clipped)
		}
		if inB {
			moved := it
			switch it.kind {
			case cif.ItemBox:
				if axis == 'x' {
					moved.box.XMin = max(it.box.XMin, at)
				} else {
					moved.box.YMin = max(it.box.YMin, at)
				}
				moved.box = moved.box.Translate(shiftB)
			case cif.ItemCall:
				moved.trans = it.trans.Then(geom.Translate(shiftB.X, shiftB.Y))
			case cif.ItemLabel:
				moved.at = it.at.Add(shiftB)
			}
			b.items = append(b.items, moved)
		}
	}
	return a, b
}
