// Package frontend implements ACE's front end: it parses a CIF design
// and delivers fully-instantiated, manhattanised boxes to the back end
// sorted from the top of the chip to the bottom — without ever
// instantiating the whole chip at once.
//
// The sort uses a max-heap keyed by box top. Symbol calls sit in the
// heap as single entries keyed by the top of their transformed
// bounding box; a call is expanded one level only when the sweep
// actually reaches it (ACE §4: "recursively expands only those cells
// that intersect the current scanline"). A cell entirely below the
// scanline therefore costs one heap entry, not its full contents.
package frontend

import (
	"fmt"
	"unsafe"

	"ace/internal/cif"
	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/tech"
)

// Box is one axis-aligned piece of mask geometry.
type Box struct {
	Layer tech.Layer
	Rect  geom.Rect
}

// Label is an instantiated net name annotation.
type Label struct {
	Name     string
	At       geom.Point
	Layer    tech.Layer
	HasLayer bool
}

// DefaultGrid is the manhattanisation grid, in centimicrons, that
// every extractor uses for non-manhattan geometry: λ/20 at the
// standard NMOS λ of 200.
const DefaultGrid = 10

// Options configures instantiation.
type Options struct {
	// Grid is the manhattanisation grid for non-manhattan geometry in
	// centimicrons. Zero selects DefaultGrid.
	Grid int64

	// KeepGlass instructs the stream to also deliver overglass
	// geometry; extraction ignores it, so by default it is dropped.
	KeepGlass bool

	// Limits are the front end's resource budgets: MaxDepth bounds the
	// call hierarchy (cycles are always rejected); zero selects
	// guard.DefaultMaxDepth. Labels' forced expansion counts the labels
	// and boxes it makes against MaxBoxes and its pending heap against
	// MaxMemBytes (see Err); otherwise the stream's consumers enforce
	// them (see extract and scan).
	Limits guard.Limits

	// Lenient selects fail-soft hierarchy validation: recursive
	// definitions and over-deep hierarchies are reported into Diags as
	// Error diagnostics and the offending calls dropped, instead of
	// failing the build. An empty design yields an empty stream plus a
	// diagnostic rather than an error. Resource budgets (Limits) still
	// abort: they protect the process, not the input.
	Lenient bool

	// Diags receives the front end's diagnostics in lenient mode. Nil
	// is allowed; findings are then silently dropped.
	Diags *diag.Set

	// Arena, when non-nil, supplies pooled Streams so repeated
	// instantiation stops allocating. Output is identical with
	// and without it.
	Arena *Arena
}

// Stats reports front-end work counters.
type Stats struct {
	BoxesOut      int // boxes delivered to the back end
	CellsExpanded int // symbol instances expanded
	PeakHeap      int // maximum heap size reached
	NonManhattan  int // polygons/wires/rotated boxes approximated
}

// Stream delivers boxes in descending top-edge order.
type Stream struct {
	syms   map[int]*cif.Symbol
	bboxes map[int]geom.Rect
	grid   int64
	keepNG bool

	heap   []hkey
	labels []Label
	stats  Stats
	bbox   geom.Rect
	hasBB  bool

	// boxes and calls hold the payloads the heap's keys point at.
	boxes slab[Box]
	calls slab[call]

	limits guard.Limits
	err    error

	// labelMemo caches per-symbol "subtree contains labels"; callSink,
	// when set, diverts label-bearing calls (as slots in calls) from the
	// heap during Labels()'s forced expansion. impureMemo caches
	// per-symbol "subtree contains polygons or wires", which decides
	// whether a call's heap key needs grid rounding (see pushItems).
	labelMemo  map[int]bool
	impureMemo map[int]bool
	callSink   *[]int32

	// banned holds symbols whose calls lenient hierarchy validation
	// dropped (cycles, excess depth); nil in strict mode.
	banned map[int]bool

	// geo is the polygon/wire decomposition scratch; a Stream is
	// single-goroutine, and pooled Streams keep its grown capacity.
	geo geom.BoxScratch
}

// hkey is one element of the stream's max-heap: the top edge the heap
// orders by and the slot of its payload. A box's slot indexes
// Stream.boxes; a call is stored as the complement of its Stream.calls
// slot, which is always negative, so NextTop tells calls from boxes
// without touching a payload. The sift loops move only keys, two words
// each; a payload is written once when pushed and read once when
// popped.
type hkey struct {
	top  int64
	slot int32
}

// call is a pending symbol instance: the symbol and the transform that
// places it.
type call struct {
	sym   int
	trans geom.Transform
}

// slab stores heap payloads by slot, with a free list: the slot of a
// popped key is reused by the next push, so a slab never holds more
// than the heap's peak of its kind, and a pooled Stream keeps the
// capacity for its next design.
type slab[T any] struct {
	items []T
	free  []int32
}

// put stores v and returns its slot.
func (s *slab[T]) put(v T) int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[slot] = v
		return slot
	}
	s.items = append(s.items, v)
	return int32(len(s.items) - 1)
}

// take returns the payload in slot and frees the slot.
func (s *slab[T]) take(slot int32) T {
	s.free = append(s.free, slot)
	return s.items[slot]
}

// live counts the occupied slots.
func (s *slab[T]) live() int { return len(s.items) - len(s.free) }

func (s *slab[T]) reset() {
	s.items = s.items[:0]
	s.free = s.free[:0]
}

// Per-element sizes for the pending-memory estimate (PendingBytes).
const (
	keyBytes   = int64(unsafe.Sizeof(hkey{}))
	boxBytes   = int64(unsafe.Sizeof(Box{}))
	callBytes  = int64(unsafe.Sizeof(call{}))
	labelBytes = int64(unsafe.Sizeof(Label{}))
)

// New builds a stream over the file's top cell. It returns an error if
// the design has no geometry at all.
func New(f *cif.File, opts Options) (*Stream, error) {
	top, _ := f.TopSymbol()
	return NewItems(top, f.Symbols, opts)
}

// NewItems builds a stream over an explicit item list (used by HEXT to
// instantiate window contents). A panic while seeding the heap surfaces
// as a *guard.PanicError attributed to the front end.
func NewItems(items []cif.Item, syms map[int]*cif.Symbol, opts Options) (s *Stream, err error) {
	defer guard.Recover(guard.StageFrontend, &err)
	if err := guard.Inject(guard.StageFrontend); err != nil {
		return nil, err
	}
	var banned map[int]bool
	if opts.Lenient {
		banned = checkHierarchyLenient(items, syms, opts.Limits.Depth(), opts.Diags)
	} else if err := checkHierarchy(items, syms, opts.Limits.Depth()); err != nil {
		return nil, err
	}
	grid := opts.Grid
	if grid <= 0 {
		grid = DefaultGrid
	}
	s = opts.Arena.getStream()
	s.syms = syms
	s.grid = grid
	s.keepNG = opts.KeepGlass
	s.banned = banned
	s.limits = opts.Limits
	s.pushItems(items, geom.Identity)
	if len(s.heap) == 0 && len(s.labels) == 0 {
		if !opts.Lenient {
			return nil, fmt.Errorf("frontend: %w", guard.ErrNoGeometry)
		}
		addDiag(opts.Diags, diag.New(diag.Warning, guard.StageFrontend,
			"no-geometry", "design contains no geometry"))
	}
	bb, ok := cif.BBoxItems(items, syms, s.bboxes)
	if ok {
		s.bbox = bb
		s.hasBB = true
	}
	return s, nil
}

// BBox returns the design's bounding box.
func (s *Stream) BBox() geom.Rect { return s.bbox }

// Labels returns every label in the design. Only calls whose symbol
// subtree actually contains labels are expanded, so the front end's
// laziness is preserved for ordinary geometry (labels typically live
// at the top level).
//
// The forced expansion is budgeted: when the labels and boxes it makes
// exceed Limits.MaxBoxes, or its pending heap and labels exceed
// Limits.MaxMemBytes, it stops, the stream delivers nothing more, and
// Err reports the *guard.LimitError. Check Err after Labels.
func (s *Stream) Labels() []Label {
	// Pull label-bearing calls out of the heap.
	var queue []int32
	w := 0
	for _, k := range s.heap {
		if k.slot < 0 && s.hasLabels(s.calls.items[^k.slot].sym) {
			queue = append(queue, ^k.slot)
		} else {
			s.heap[w] = k
			w++
		}
	}
	if w == len(s.heap) {
		return s.labels // nothing to expand
	}
	s.heap = s.heap[:w]
	s.fixHeap()

	// Expand the queue iteratively; geometry goes back into the heap,
	// label-bearing sub-calls stay in the queue.
	budgeted := s.limits.MaxBoxes > 0 || s.limits.MaxMemBytes > 0
	labels0, boxes0 := len(s.labels), s.boxes.live()
	for len(queue) > 0 {
		c := s.calls.take(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		s.stats.CellsExpanded++
		s.callSink = &queue
		s.pushItems(s.syms[c.sym].Items, c.trans)
		s.callSink = nil
		if budgeted {
			// No box leaves the heap during Labels, so the live box
			// count's growth is the boxes this expansion pushed.
			made := int64(len(s.labels) - labels0 + s.boxes.live() - boxes0)
			s.err = s.limits.CheckBoxes(guard.StageFrontend, made)
			if s.err == nil {
				s.err = s.limits.CheckMem(guard.StageFrontend,
					s.PendingBytes()+int64(len(s.labels))*labelBytes)
			}
			if s.err != nil {
				s.heap = s.heap[:0]
				break
			}
		}
	}
	return s.labels
}

// Err reports the budget error that stopped Labels' forced expansion,
// after which the stream delivers no boxes; nil otherwise.
func (s *Stream) Err() error { return s.err }

// PendingBytes estimates the memory the heap holds for geometry not
// yet delivered: its keys plus the live box and call payloads (calls
// Labels has queued included). The sweep adds it to its own footprint
// for the MaxMemBytes budget.
func (s *Stream) PendingBytes() int64 {
	return int64(len(s.heap))*keyBytes + int64(s.boxes.live())*boxBytes + int64(s.calls.live())*callBytes
}

// hasLabels reports whether a symbol's subtree contains any label.
func (s *Stream) hasLabels(id int) bool {
	if v, ok := s.labelMemo[id]; ok {
		return v
	}
	if s.labelMemo == nil {
		s.labelMemo = map[int]bool{}
	}
	s.labelMemo[id] = false // break cycles defensively
	found := false
	for _, it := range s.syms[id].Items {
		switch it.Kind {
		case cif.ItemLabel:
			found = true
		case cif.ItemCall:
			if s.hasLabels(it.SymbolID) {
				found = true
			}
		}
		if found {
			break
		}
	}
	s.labelMemo[id] = found
	return found
}

// hasImpure reports whether a symbol's subtree contains any polygon or
// wire — geometry whose manhattanisation may overshoot the symbol
// bounding box by up to one grid band.
func (s *Stream) hasImpure(id int) bool {
	if v, ok := s.impureMemo[id]; ok {
		return v
	}
	if s.impureMemo == nil {
		s.impureMemo = map[int]bool{}
	}
	s.impureMemo[id] = false // break cycles defensively
	found := false
	for _, it := range s.syms[id].Items {
		switch it.Kind {
		case cif.ItemPolygon, cif.ItemWire:
			found = true
		case cif.ItemCall:
			if s.hasImpure(it.SymbolID) {
				found = true
			}
		}
		if found {
			break
		}
	}
	s.impureMemo[id] = found
	return found
}

// ceilToGrid rounds v up to the next multiple of grid.
func ceilToGrid(v, grid int64) int64 {
	if r := ((v % grid) + grid) % grid; r != 0 {
		return v + grid - r
	}
	return v
}

// Stats returns work counters.
func (s *Stream) Stats() Stats { return s.stats }

// NextTop reports the top edge of the next box without consuming it.
func (s *Stream) NextTop() (int64, bool) {
	for len(s.heap) > 0 && s.heap[0].slot < 0 {
		s.expand(s.calls.take(^s.pop().slot))
	}
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].top, true
}

// Next returns the next box in descending top order.
func (s *Stream) Next() (Box, bool) {
	if _, ok := s.NextTop(); !ok {
		return Box{}, false
	}
	s.stats.BoxesOut++
	return s.boxes.take(s.pop().slot), true
}

// Drain returns all remaining boxes (mostly for tests and the
// baselines, which want the flat list).
func (s *Stream) Drain() []Box {
	var out []Box
	for {
		b, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, b)
	}
}

func (s *Stream) expand(c call) {
	s.stats.CellsExpanded++
	s.pushItems(s.syms[c.sym].Items, c.trans)
}

func (s *Stream) pushItems(items []cif.Item, tr geom.Transform) {
	for _, it := range items {
		switch it.Kind {
		case cif.ItemBox:
			s.pushBox(it.Layer, tr.ApplyRect(it.Box))
		case cif.ItemPolygon:
			s.stats.NonManhattan++
			// pushBox copies each rect out before the scratch's next use.
			for _, r := range it.Poly.ApplyManhattanize(&s.geo, tr, s.grid) {
				s.pushBox(it.Layer, r)
			}
		case cif.ItemWire:
			s.stats.NonManhattan++
			for _, r := range it.Wire.ApplyBoxes(&s.geo, tr, s.grid) {
				s.pushBox(it.Layer, r)
			}
		case cif.ItemCall:
			if s.banned[it.SymbolID] {
				continue // dropped by lenient hierarchy validation
			}
			sub, ok := cif.SymbolBBox(it.SymbolID, s.syms, s.bboxes)
			if !ok {
				continue // empty symbol
			}
			t := it.Trans.Then(tr)
			top := t.ApplyRect(sub).YMax
			if s.hasImpure(it.SymbolID) {
				// Manhattanisation rounds band tops up to the grid, so
				// a polygon or wire in the subtree can produce boxes
				// above the symbol's bounding box. Rounding the key up
				// keeps the heap's invariant — children never outrank
				// their call — so delivery stays in descending-top
				// order (the sweep requires it).
				top = ceilToGrid(top, s.grid)
			}
			slot := s.calls.put(call{sym: it.SymbolID, trans: t})
			if s.callSink != nil && s.hasLabels(it.SymbolID) {
				*s.callSink = append(*s.callSink, slot)
			} else {
				s.push(hkey{top: top, slot: ^slot})
			}
		case cif.ItemLabel:
			s.labels = append(s.labels, Label{
				Name:     it.Name,
				At:       tr.Apply(it.At),
				Layer:    it.Layer,
				HasLayer: it.HasLayer,
			})
		}
	}
}

func (s *Stream) pushBox(l tech.Layer, r geom.Rect) {
	if r.Empty() {
		return
	}
	if l == tech.Glass && !s.keepNG {
		return
	}
	s.push(hkey{top: r.YMax, slot: s.boxes.put(Box{Layer: l, Rect: r})})
}

// ---- max-heap keyed by top ----
//
// push, pop, siftDown and fixHeap make exactly the comparisons and
// swaps of the binary heap the stream has always used, so boxes with
// equal tops leave in the same order and the wirelist stays
// byte-identical. A d-ary or bottom-up heap would reorder those ties.

func (s *Stream) push(k hkey) {
	s.heap = append(s.heap, k)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].top >= s.heap[i].top {
			break
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
	if len(s.heap) > s.stats.PeakHeap {
		s.stats.PeakHeap = len(s.heap)
	}
}

func (s *Stream) pop() hkey {
	k := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.siftDown(0)
	return k
}

func (s *Stream) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s.heap[l].top > s.heap[m].top {
			m = l
		}
		if r < n && s.heap[r].top > s.heap[m].top {
			m = r
		}
		if m == i {
			return
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
}

func (s *Stream) fixHeap() {
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}
