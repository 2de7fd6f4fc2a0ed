package hext

import (
	"fmt"
	"io"
	"strings"

	"ace/internal/wirelist"
)

// WriteHierarchical emits the extraction result as a hierarchical
// wirelist in the style of Figure 2-2: one DefPart per unique window,
// Part statements instantiating child windows, and Net statements
// establishing the signal equivalences across seams. Because the memo
// table shares identical windows, a window repeated a thousand times
// appears once as a DefPart and a thousand times as one-line Parts —
// the whole point of hierarchical extraction.
//
// Partial transistors use the (TPart …) extension: the original V085
// format document is lost and Figure 2-2 shows no window-crossing
// transistors, so the syntax for them is ours (DESIGN.md §6).
//
// A whole-result disk hit copies the wirelist its cache entry stores,
// so it writes nothing to r, and concurrent calls are safe.
func (r *Result) WriteHierarchical(w io.Writer) error {
	if r.stored == nil {
		return writeHier(w, r.top)
	}
	text, err := r.stored.text()
	if err != nil {
		return fmt.Errorf("hext: hierarchical wirelist: %w", err)
	}
	_, err = w.Write(text)
	return err
}

// HierarchicalString renders the hierarchical wirelist to a string.
func (r *Result) HierarchicalString() string {
	var sb strings.Builder
	_ = r.WriteHierarchical(&sb)
	return sb.String()
}

// writeHier renders the hierarchical wirelist of the result DAG under
// top; a nil top (a lenient empty design) writes the prelude only.
func writeHier(w io.Writer, top *winResult) error {
	e := &hw{Sink: wirelist.NewSink(w), ids: map[*winResult]int{}}
	e.Str("(DefPart nEnh (Exports G S D))\n" +
		"(DefPart nDep (Exports G S D))\n" +
		"(DefPart nCap (Exports G S D))\n")
	if top != nil {
		e.Int("(Part Window", int64(e.emit(top)))
		e.Str(" (Name Top))\n")
	}
	return e.Flush()
}

// hw renders windows through the flat writer's chunked Sink. ids holds
// the number of each window written so far. The flag and slot slices
// are scratch reused from window to window.
type hw struct {
	*wirelist.Sink
	ids map[*winResult]int

	netExported, partExported []bool
	partSlot                  []int32 // device index -> partial slot, or -1
}

// flags returns buf resized to n false entries.
func flags(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// ref appends a child reference, " P<child+1><kind><idx>" with kind
// "/N" or "/T".
func (e *hw) ref(rf ref, kind string) {
	e.Int(" P", int64(rf.child)+1)
	e.Int(kind, int64(rf.idx))
}

// emit writes the DefPart of r, after those of the windows below it not
// yet written, and returns r's window number. Windows are numbered 1,
// 2, ... as they are written, in first-visit post-order (child 0's
// subtree, then child 1's, then the window): the order the recursion
// extracts them in, so the numbers depend on the design alone, not on
// what the session held before.
func (e *hw) emit(r *winResult) int {
	if id, ok := e.ids[r]; ok {
		return id
	}
	var kids [2]int
	if r.comp != nil {
		kids[0] = e.emit(r.comp.kids[0])
		kids[1] = e.emit(r.comp.kids[1])
	}
	id := len(e.ids) + 1
	e.ids[r] = id

	e.Int("(DefPart Window", int64(id))
	e.Int(" (Size ", r.w)
	e.Int(" ", r.h)
	e.Str(")\n")

	// Exports: the nets and partial transistors visible on the
	// window's boundary.
	nets := flags(e.netExported, r.netCount)
	parts := flags(e.partExported, r.partCount)
	e.netExported, e.partExported = nets, parts
	for _, eg := range r.edges {
		if eg.layer == eChan {
			parts[eg.ref] = true
		} else {
			nets[eg.ref] = true
		}
	}
	e.Str(" (Exports")
	for i, x := range nets {
		if x {
			e.Int(" N", int64(i))
			e.Spill()
		}
	}
	for i, x := range parts {
		if x {
			e.Int(" T", int64(i))
			e.Spill()
		}
	}
	e.Str(" )\n")

	if r.leaf != nil {
		e.emitLeaf(r)
	} else {
		e.emitComp(r, kids)
	}

	// Local: internal nets not exported.
	e.Str(" (Local")
	for i, x := range nets {
		if !x {
			e.Int(" N", int64(i))
			e.Spill()
		}
	}
	e.Str(" ))\n")
	e.Spill()
	return id
}

func (e *hw) emitLeaf(r *winResult) {
	nl := r.leaf.nl
	// The cached netlist is anchored; adding the anchor back prints
	// locations in the window frame, as the format has always done.
	anchor := r.leaf.anchor
	slots := e.partSlot[:0]
	for range nl.Devices {
		slots = append(slots, -1)
	}
	for slot, di := range r.leaf.partDevs {
		slots[di] = int32(slot)
	}
	e.partSlot = slots
	for i := range nl.Devices {
		d := &nl.Devices[i]
		loc := d.Location.Add(anchor)
		e.Str(" (Part ")
		e.Str(d.Type.String())
		e.Int(" (Name D", int64(i))
		e.Int(") (Loc ", loc.X)
		e.Int(" ", loc.Y)
		e.Int(") (T G N", int64(d.Gate))
		e.Int(") (T S N", int64(d.Source))
		e.Int(") (T D N", int64(d.Drain))
		e.Int(") (Channel (Length ", d.Length)
		e.Int(") (Width ", d.Width)
		e.Str("))")
		if slot := slots[i]; slot >= 0 {
			// A partial transistor carries its accumulator facts so a
			// reader can complete it exactly after composition: channel
			// area, implanted area, and the contact-edge length against
			// each terminal net seen so far.
			e.Int(" (TPart T", int64(slot))
			e.Int(" (Area ", d.Area)
			e.Int(") (Impl ", d.ImplArea)
			e.Str(") (Edges")
			for _, term := range d.Terminals {
				e.Int(" (N", int64(term.Net))
				e.Int(" ", term.Edge)
				e.Str(")")
			}
			e.Str(" ))")
		}
		e.Str(")\n")
		e.Spill()
	}
	for i := range nl.Nets {
		if len(nl.Nets[i].Names) == 0 {
			continue
		}
		e.Int(" (Net N", int64(i))
		for _, nm := range nl.Nets[i].Names {
			e.Str(" ")
			e.Name(nm)
			e.Spill()
		}
		e.Str(")\n")
	}
}

// emitComp writes a composed window's body; kids are its children's
// window numbers.
func (e *hw) emitComp(r *winResult, kids [2]int) {
	c := r.comp
	for k := 0; k < 2; k++ {
		e.Int(" (Part Window", int64(kids[k]))
		e.Int(" (Name P", int64(k+1))
		e.Int(") (LocOffset ", c.at[k].X)
		e.Int(" ", c.at[k].Y)
		e.Str("))\n")
	}
	for _, eq := range c.netEquivs {
		e.Str(" (Net")
		e.ref(eq[0], "/N")
		e.ref(eq[1], "/N")
		e.Str(")\n")
		e.Spill()
	}
	for _, eq := range c.partEquivs {
		e.Str(" (TPartEquiv")
		e.ref(eq[0], "/T")
		e.ref(eq[1], "/T")
		e.Str(")\n")
		e.Spill()
	}
	for _, pt := range c.partTerms {
		e.Str(" (TPartTerm")
		e.ref(pt.part, "/T")
		e.ref(pt.net, "/N")
		e.Int(" ", pt.edge)
		e.Str(")\n")
		e.Spill()
	}
	// Export bindings: parent net k stands for a child net.
	for k, rf := range c.parentNets {
		e.Int(" (Net N", int64(k))
		e.ref(rf, "/N")
		e.Str(")\n")
		e.Spill()
	}
	for k, rf := range c.parentParts {
		e.Int(" (TPart T", int64(k))
		e.ref(rf, "/T")
		e.Str(")\n")
		e.Spill()
	}
}
