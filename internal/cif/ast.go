// Package cif parses and writes CIF 2.0 (Caltech Intermediate Form),
// the layout interchange format of Mead & Conway that ACE consumes.
//
// Supported commands: DS/DF symbol definitions with scale factors,
// C symbol calls with T/M/R transformation lists, L layer selection,
// B boxes (including rotated boxes via the optional direction vector),
// P polygons, W wires, R round flashes, the 9 (symbol name) and
// 94 (point label) user extensions, parenthesised comments, and E.
//
// Per the CIF definition the current layer is "sticky" global state;
// this parser records the sticky layer in textual order, which matches
// the behaviour of the historical Berkeley and CMU tools.
package cif

import (
	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/tech"
)

// File is a parsed CIF file.
type File struct {
	// Symbols maps symbol number to definition.
	Symbols map[int]*Symbol

	// Top holds the items that appear outside any symbol definition;
	// they form the implicit top-level cell.
	Top []Item

	// Diagnostics carries every finding, each with a stable code and a
	// source span: the Warnings for non-fatal issues (snapped
	// rotations, unknown layers, ignored commands), plus — in lenient
	// mode — the Error-severity diagnostics recorded where the parser
	// recovered instead of aborting.
	Diagnostics diag.Set
}

// Symbol is one DS…DF definition.
type Symbol struct {
	ID    int
	Name  string // from the "9" user extension, if present
	Items []Item
}

// ItemKind discriminates Item.
type ItemKind int8

const (
	ItemBox ItemKind = iota
	ItemPolygon
	ItemWire
	ItemCall
	ItemLabel
)

// Item is a single geometric or structural element. A sum type
// implemented as a struct-with-kind keeps instantiation allocation
// cheap, which matters because the front end creates millions of
// these for large chips.
type Item struct {
	Kind  ItemKind
	Layer tech.Layer // for Box/Polygon/Wire, and optionally Label

	Box  geom.Rect    // ItemBox
	Poly geom.Polygon // ItemPolygon
	Wire geom.Wire    // ItemWire

	// ItemCall fields.
	SymbolID int
	Trans    geom.Transform

	// ItemLabel fields (CIF "94 name x y [layer]").
	Name     string
	At       geom.Point
	HasLayer bool
}

// BBoxItems returns the bounding box of a set of items, resolving
// calls through the symbol table. Results per symbol are memoised in
// cache (keyed by symbol id); pass a shared map when calling
// repeatedly.
func BBoxItems(items []Item, syms map[int]*Symbol, cache map[int]geom.Rect) (geom.Rect, bool) {
	var bb geom.Rect
	have := false
	add := func(r geom.Rect) {
		if !have {
			bb = r
			have = true
		} else {
			bb = bb.Union(r)
		}
	}
	for _, it := range items {
		switch it.Kind {
		case ItemBox:
			add(it.Box)
		case ItemPolygon:
			add(it.Poly.BBox())
		case ItemWire:
			add(wireBBox(it.Wire))
		case ItemCall:
			sub, ok := SymbolBBox(it.SymbolID, syms, cache)
			if ok {
				add(it.Trans.ApplyRect(sub))
			}
		case ItemLabel:
			// Labels are points; they do not extend the artwork.
		}
	}
	return bb, have
}

// SymbolBBox returns the bounding box of a symbol's full expansion.
func SymbolBBox(id int, syms map[int]*Symbol, cache map[int]geom.Rect) (geom.Rect, bool) {
	if r, ok := cache[id]; ok {
		return r, !r.Empty() || r != (geom.Rect{})
	}
	sym, ok := syms[id]
	if !ok {
		return geom.Rect{}, false
	}
	// Guard against recursive definitions: mark in-progress with the
	// zero rect so a cycle resolves to an empty box instead of hanging.
	cache[id] = geom.Rect{}
	bb, have := BBoxItems(sym.Items, syms, cache)
	if !have {
		return geom.Rect{}, false
	}
	cache[id] = bb
	return bb, true
}

func wireBBox(w geom.Wire) geom.Rect {
	if len(w.Path) == 0 {
		return geom.Rect{}
	}
	// Accumulate min/max directly: path points are zero-area rects,
	// which Rect.Union would treat as absent when they sit at the
	// origin.
	h := w.Width/2 + (w.Width & 1)
	bb := geom.Rect{XMin: w.Path[0].X, YMin: w.Path[0].Y, XMax: w.Path[0].X, YMax: w.Path[0].Y}
	for _, p := range w.Path[1:] {
		if p.X < bb.XMin {
			bb.XMin = p.X
		}
		if p.X > bb.XMax {
			bb.XMax = p.X
		}
		if p.Y < bb.YMin {
			bb.YMin = p.Y
		}
		if p.Y > bb.YMax {
			bb.YMax = p.Y
		}
	}
	return geom.Rect{XMin: bb.XMin - h, YMin: bb.YMin - h, XMax: bb.XMax + h, YMax: bb.YMax + h}
}
