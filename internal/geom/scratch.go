package geom

// BoxScratch holds the reusable buffers behind polygon and wire
// decomposition (Manhattanize, Wire.Boxes, Canonicalize). The plain
// functions allocate these per call; the front end decomposes every
// non-manhattan item on every extraction, so a warm loop threads one
// scratch through ApplyManhattanize / ApplyBoxes instead and the
// decomposition stops allocating once the buffers have grown to the
// workload's shape.
//
// Results returned by scratch-taking methods alias the scratch and
// stay valid only until its next use — callers copy what they keep.
// The zero value is ready; a nil *BoxScratch degrades to per-call
// allocation, so call sites need no guards. A scratch is not safe for
// concurrent use; give each goroutine its own (every frontend.Stream
// embeds one).
type BoxScratch struct {
	poly Polygon  // transformed polygon copy
	path []Point  // transformed wire path
	quad [4]Point // diagonal wire segment quad
	xs   []int64  // band crossing coordinates
	out  []Rect   // raw manhattanisation bands
	wire []Rect   // wire segment accumulation

	// canonicalisation state
	in     []Rect
	ys     []int64
	active []Rect
	ivals  [][2]int64
	used   []bool
	open   []canonStrip
	still  []canonStrip
	done   []Rect
}

// canonStrip is an in-progress maximal horizontal strip of the union
// being canonicalised.
type canonStrip struct {
	x0, x1 int64
	y0, y1 int64
}
