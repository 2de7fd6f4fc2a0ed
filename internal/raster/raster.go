// Package raster implements the fixed-grid raster-scan extractor that
// preceded ACE at CMU (Partlist, after Baker's MIT artwork-analysis
// algorithm; ACE §2 and Table 5-2's baseline).
//
// The chip is examined in raster-scan order — left to right, top to
// bottom — through an L-shaped window of three grid squares: the
// current square, its left neighbour and its top neighbour. Net labels
// propagate through the window exactly as in connected-component
// labelling; devices are recognised square by square. The algorithm is
// simple but must visit every grid square spanned by every box, which
// is why ACE's edge-based sweep beats it: "an edge-based extractor
// skips empty space and extracts large boxes at little cost" (ACE §5).
package raster

import (
	"fmt"

	"ace/internal/build"
	"ace/internal/diag"
	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// Options configures the raster extractor.
type Options struct {
	// Grid is the raster pitch in centimicrons. All geometry must be
	// aligned to it — the fixed-grid algorithm's documented constraint
	// (ACE §2: "It further requires that all geometry be aligned with
	// the grid."). Zero selects the NMOS λ of 200.
	Grid int64

	// KeepGeometry records per-net geometry (one rect per grid square
	// run; coarse but faithful to the algorithm).
	KeepGeometry bool

	// Labels are the design's name labels.
	Labels []frontend.Label
}

// Counters reports raster work.
type Counters struct {
	Rows    int
	Cols    int
	Squares int64 // grid squares visited (the raster's cost driver)
	BoxesIn int
}

// Result of a raster extraction.
type Result struct {
	Netlist  *netlist.Netlist
	Counters Counters

	// Diagnostics are the run's findings (unmatched-label and
	// label-conflict Warnings), attributed to stage "raster".
	Diagnostics []diag.Diagnostic
}

// stage attributes this extractor's findings.
const stage = "raster"

// layer bit masks per grid square.
const (
	mDiff = 1 << iota
	mPoly
	mMetal
	mCut
	mBuried
	mImplant
)

var maskOf = map[tech.Layer]uint8{
	tech.Diff:    mDiff,
	tech.Poly:    mPoly,
	tech.Metal:   mMetal,
	tech.Cut:     mCut,
	tech.Buried:  mBuried,
	tech.Implant: mImplant,
}

// Extract runs the raster algorithm over all boxes from the source.
func Extract(src interface {
	Next() (frontend.Box, bool)
}, opt Options) (*Result, error) {
	grid := opt.Grid
	if grid <= 0 {
		grid = 200
	}

	var boxes []frontend.Box
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		boxes = append(boxes, b)
	}
	return ExtractBoxes(boxes, opt)
}

// ExtractBoxes runs the raster algorithm over an explicit box list.
func ExtractBoxes(boxes []frontend.Box, opt Options) (*Result, error) {
	grid := opt.Grid
	if grid <= 0 {
		grid = 200
	}
	res := &Result{}
	res.Counters.BoxesIn = len(boxes)
	if len(boxes) == 0 {
		res.Netlist = &netlist.Netlist{}
		return res, nil
	}

	bb := boxes[0].Rect
	for _, b := range boxes[1:] {
		bb = bb.Union(b.Rect)
	}
	for _, b := range boxes {
		r := b.Rect
		if r.XMin%grid != 0 || r.XMax%grid != 0 || r.YMin%grid != 0 || r.YMax%grid != 0 {
			return nil, fmt.Errorf("raster: box %v not aligned to grid %d", r, grid)
		}
	}

	cols := int((bb.XMax - bb.XMin) / grid)
	rows := int((bb.YMax - bb.YMin) / grid)
	if cols <= 0 || rows <= 0 {
		res.Netlist = &netlist.Netlist{}
		return res, nil
	}

	e := &engine{
		grid: grid, bb: bb, cols: cols, rows: rows,
		b:      &build.Builder{KeepGeometry: opt.KeepGeometry, Stage: stage},
		labels: opt.Labels,
	}
	e.run(boxes)
	nl, _ := e.b.Finish()
	res.Netlist = nl
	res.Counters.Rows = rows
	res.Counters.Cols = cols
	res.Counters.Squares = int64(rows) * int64(cols)
	res.Diagnostics = append(e.diags, e.b.Diagnostics()...)
	return res, nil
}

type engine struct {
	grid       int64
	bb         geom.Rect
	cols, rows int

	b      *build.Builder
	labels []frontend.Label

	diags []diag.Diagnostic
}

// cellState is the per-square state carried between rows: net labels
// for the three conducting planes and the device label for channels.
type rowState struct {
	mask  []uint8
	metal []int32
	poly  []int32
	diff  []int32
	chan_ []int32
}

func newRowState(cols int) *rowState {
	rs := &rowState{
		mask:  make([]uint8, cols),
		metal: make([]int32, cols),
		poly:  make([]int32, cols),
		diff:  make([]int32, cols),
		chan_: make([]int32, cols),
	}
	rs.clear()
	return rs
}

func (rs *rowState) clear() {
	for i := range rs.mask {
		rs.mask[i] = 0
		rs.metal[i] = -1
		rs.poly[i] = -1
		rs.diff[i] = -1
		rs.chan_[i] = -1
	}
}

func (e *engine) run(boxes []frontend.Box) {
	// Bucket boxes by their starting row (row 0 = top of chip).
	rowOf := func(y int64) int { return int((e.bb.YMax - y) / e.grid) }
	starts := make([][]frontend.Box, e.rows+1)
	for _, b := range boxes {
		r := rowOf(b.Rect.YMax)
		starts[r] = append(starts[r], b)
	}

	// Bucket labels by the row containing their point. A label on a
	// row boundary belongs to the row below it (whose yTop it is);
	// one on the chip's bottom edge belongs to the last row.
	labelRows := make([][]frontend.Label, e.rows)
	for _, lb := range e.labels {
		if lb.At.Y > e.bb.YMax || lb.At.Y < e.bb.YMin ||
			lb.At.X > e.bb.XMax || lb.At.X < e.bb.XMin {
			e.diags = append(e.diags, diag.New(diag.Warning, stage, "unmatched-label",
				fmt.Sprintf("label %q at %v outside the chip", lb.Name, lb.At)))
			continue
		}
		r := rowOf(lb.At.Y)
		if lb.At.Y == e.bb.YMax {
			r = 0
		}
		if r >= e.rows {
			r = e.rows - 1
		}
		labelRows[r] = append(labelRows[r], lb)
	}

	prev := newRowState(e.cols)
	cur := newRowState(e.cols)
	var active []frontend.Box

	for row := 0; row < e.rows; row++ {
		yTop := e.bb.YMax - int64(row)*e.grid
		yBot := yTop - e.grid

		// Update the active box set and paint the row's layer masks.
		active = append(active, starts[row]...)
		w := 0
		for _, b := range active {
			if b.Rect.YMin < yTop { // still spans this row
				active[w] = b
				w++
			}
		}
		active = active[:w]
		for i := range cur.mask {
			cur.mask[i] = 0
			cur.metal[i] = -1
			cur.poly[i] = -1
			cur.diff[i] = -1
			cur.chan_[i] = -1
		}
		for _, b := range active {
			m, ok := maskOf[b.Layer]
			if !ok {
				continue
			}
			c0 := int((b.Rect.XMin - e.bb.XMin) / e.grid)
			c1 := int((b.Rect.XMax - e.bb.XMin) / e.grid)
			for c := c0; c < c1; c++ {
				cur.mask[c] |= m
			}
		}

		// The L-window pass.
		for c := 0; c < e.cols; c++ {
			e.square(cur, prev, row, c, yTop, yBot)
		}

		// Resolve this row's labels against the freshly-built planes.
		for _, lb := range labelRows[row] {
			e.attachLabel(cur, lb)
		}

		prev, cur = cur, prev
	}
}

// attachLabel binds one label to the net in its grid square, preferring
// metal, then poly, then diffusion (matching ACE's rule).
func (e *engine) attachLabel(cur *rowState, lb frontend.Label) {
	c := int((lb.At.X - e.bb.XMin) / e.grid)
	if c >= e.cols {
		c = e.cols - 1
	}
	pick := func(plane []int32) int32 {
		if plane[c] >= 0 {
			return plane[c]
		}
		// A label exactly on a cell's left boundary may belong to the
		// square on its other side.
		if c > 0 && lb.At.X == e.bb.XMin+int64(c)*e.grid && plane[c-1] >= 0 {
			return plane[c-1]
		}
		return -1
	}
	var id int32 = -1
	if lb.HasLayer {
		switch lb.Layer {
		case tech.Metal:
			id = pick(cur.metal)
		case tech.Poly:
			id = pick(cur.poly)
		case tech.Diff:
			id = pick(cur.diff)
		}
	} else {
		for _, plane := range [][]int32{cur.metal, cur.poly, cur.diff} {
			if id = pick(plane); id >= 0 {
				break
			}
		}
	}
	if id < 0 {
		e.diags = append(e.diags, diag.New(diag.Warning, stage, "unmatched-label",
			fmt.Sprintf("label %q at %v matches no conducting geometry", lb.Name, lb.At)))
		return
	}
	e.b.NameNet(id, lb.Name)
}

// square processes one grid square with its left and top neighbours.
func (e *engine) square(cur, prev *rowState, row, c int, yTop, yBot int64) {
	m := cur.mask[c]
	if m == 0 {
		return
	}
	isChan := m&mDiff != 0 && m&mPoly != 0 && m&mBuried == 0
	isBurCon := m&mDiff != 0 && m&mPoly != 0 && m&mBuried != 0

	x0 := e.bb.XMin + int64(c)*e.grid
	sq := geom.Rect{XMin: x0, YMin: yBot, XMax: x0 + e.grid, YMax: yTop}

	label := func(plane []int32, prevPlane []int32, here bool, layer tech.Layer) int32 {
		if !here {
			return -1
		}
		id := int32(-1)
		if c > 0 && plane[c-1] >= 0 {
			id = e.b.FindNet(plane[c-1])
		}
		if up := prevPlane[c]; up >= 0 {
			if id >= 0 {
				id = e.b.UnionNets(id, up)
			} else {
				id = e.b.FindNet(up)
			}
		}
		if id < 0 {
			id = e.b.NewNet(geom.Pt(sq.XMin, sq.YMax))
		}
		plane[c] = id
		if e.b.KeepGeometry {
			e.b.AddNetGeometry(id, layer, sq)
		}
		return id
	}

	metal := label(cur.metal, prev.metal, m&mMetal != 0, tech.Metal)
	poly := label(cur.poly, prev.poly, m&mPoly != 0, tech.Poly)
	diff := label(cur.diff, prev.diff, m&mDiff != 0 && !isChan, tech.Diff)

	// Contact cut: metal to poly and/or diffusion.
	if m&mCut != 0 && metal >= 0 {
		if poly >= 0 {
			e.b.UnionNets(metal, poly)
		}
		if diff >= 0 {
			e.b.UnionNets(metal, diff)
		}
	}
	// Buried contact: poly to diffusion.
	if isBurCon && poly >= 0 && diff >= 0 {
		e.b.UnionNets(poly, diff)
	}

	if isChan {
		dv := int32(-1)
		if c > 0 && cur.chan_[c-1] >= 0 {
			dv = e.b.FindDev(cur.chan_[c-1])
		}
		if up := prev.chan_[c]; up >= 0 {
			if dv >= 0 {
				dv = e.b.UnionDevs(dv, up)
			} else {
				dv = e.b.FindDev(up)
			}
		}
		if dv < 0 {
			dv = e.b.NewDev()
		}
		cur.chan_[c] = dv
		e.b.AddChannel(dv, sq)
		if m&mImplant != 0 {
			e.b.AddImplant(dv, sq.Area())
		}
		if poly >= 0 {
			e.b.AddGate(dv, poly)
		}
		// S/D edges against the left and top neighbours.
		if c > 0 && cur.diff[c-1] >= 0 {
			e.b.AddTerm(dv, cur.diff[c-1], e.grid)
		}
		if prev.diff[c] >= 0 {
			e.b.AddTerm(dv, prev.diff[c], e.grid)
		}
	} else if diff >= 0 {
		// Conducting diffusion adjacent to a channel on the left or
		// above contributes the other half of the edge pairs.
		if c > 0 && cur.chan_[c-1] >= 0 {
			e.b.AddTerm(cur.chan_[c-1], diff, e.grid)
		}
		if prev.chan_[c] >= 0 {
			e.b.AddTerm(prev.chan_[c], diff, e.grid)
		}
	}
}
