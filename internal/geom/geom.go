// Package geom provides the integer geometry kernel used by every part
// of the extractor: points, rectangles, CIF transformations, polygons,
// wires, and the manhattanisation pass that approximates arbitrary
// geometry with axis-aligned boxes.
//
// All coordinates are integers in CIF centimicrons (1/100 µm). The
// technology's λ (lambda) is also expressed in centimicrons; the
// default Mead–Conway NMOS λ is 200 (2 µm).
package geom

import "fmt"

// Point is an integer coordinate pair in centimicrons.
type Point struct {
	X, Y int64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int64) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. The invariant XMin <= XMax and
// YMin <= YMax holds for every Rect produced by this package;
// degenerate (zero width or height) rectangles are permitted and
// represent edges or points.
type Rect struct {
	XMin, YMin, XMax, YMax int64
}

// R builds a Rect from two corner coordinates in any order.
func R(x0, y0, x1, y1 int64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// RectCWH builds a Rect from a CIF box description: length (x extent),
// width (y extent) and centre point, matching "B length width cx cy".
func RectCWH(length, width int64, center Point) Rect {
	return Rect{
		XMin: center.X - length/2,
		YMin: center.Y - width/2,
		XMax: center.X + (length - length/2),
		YMax: center.Y + (width - width/2),
	}
}

// W returns the rectangle's x extent.
func (r Rect) W() int64 { return r.XMax - r.XMin }

// H returns the rectangle's y extent.
func (r Rect) H() int64 { return r.YMax - r.YMin }

// Area returns the rectangle's area.
func (r Rect) Area() int64 { return r.W() * r.H() }

// Center returns the rectangle's centre, rounded toward -infinity.
func (r Rect) Center() Point { return Point{(r.XMin + r.XMax) / 2, (r.YMin + r.YMax) / 2} }

// Empty reports whether the rectangle has zero area.
func (r Rect) Empty() bool { return r.XMin >= r.XMax || r.YMin >= r.YMax }

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.XMin && p.X <= r.XMax && p.Y >= r.YMin && p.Y <= r.YMax
}

// Overlaps reports whether r and s share interior area.
func (r Rect) Overlaps(s Rect) bool {
	return r.XMin < s.XMax && s.XMin < r.XMax && r.YMin < s.YMax && s.YMin < r.YMax
}

// Touches reports whether r and s overlap or abut (share at least an
// edge segment or a corner point).
func (r Rect) Touches(s Rect) bool {
	return r.XMin <= s.XMax && s.XMin <= r.XMax && r.YMin <= s.YMax && s.YMin <= r.YMax
}

// Intersect returns the overlap of r and s. The result is degenerate
// or inverted when the rectangles do not overlap; callers should test
// Empty.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		XMin: max64(r.XMin, s.XMin),
		YMin: max64(r.YMin, s.YMin),
		XMax: min64(r.XMax, s.XMax),
		YMax: min64(r.YMax, s.YMax),
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() && r == (Rect{}) {
		return s
	}
	if s.Empty() && s == (Rect{}) {
		return r
	}
	return Rect{
		XMin: min64(r.XMin, s.XMin),
		YMin: min64(r.YMin, s.YMin),
		XMax: max64(r.XMax, s.XMax),
		YMax: max64(r.YMax, s.YMax),
	}
}

// Translate returns r shifted by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.XMin + d.X, r.YMin + d.Y, r.XMax + d.X, r.YMax + d.Y}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.XMin, r.YMin, r.XMax, r.YMax)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
