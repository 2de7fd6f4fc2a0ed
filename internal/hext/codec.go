package hext

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// This file is the versioned binary encoding behind the persistent
// cache (internal/store), whose two entries per design it encodes: the
// whole result (the flattened netlist plus the extraction's findings)
// and the window tree (the top window's result DAG, children embedded and
// deduplicated). The store layer already guarantees the bytes are
// exactly what a previous run wrote for exactly this key — magic,
// version, full key and checksum are verified there — but the decoders
// still bounds-check every read and validate every cross-reference, so
// even a hostile cache file can only produce a decode error (a miss,
// recomputed), never a panic or a wrong netlist.

// Payload format versions, separate from the store's container
// version: bump when the encodings below change shape. An entry of
// another version fails to decode and is extracted again. Version 1
// whole results held warning strings; version 1 window trees carried a
// memo key in every record.
const (
	flatPayloadVersion = 2
	winPayloadVersion  = 2
)

var errCodec = errors.New("hext: cache payload damaged")

// --- encoder ---

type encBuf struct{ b []byte }

func (e *encBuf) u8(v byte) { e.b = append(e.b, v) }
func (e *encBuf) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}
func (e *encBuf) varint(v int64) {
	e.b = binary.AppendVarint(e.b, v)
}
func (e *encBuf) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *encBuf) point(p geom.Point) {
	e.varint(p.X)
	e.varint(p.Y)
}
func (e *encBuf) rect(r geom.Rect) {
	e.varint(r.XMin)
	e.varint(r.YMin)
	e.varint(r.XMax)
	e.varint(r.YMax)
}

// --- decoder ---

// decBuf reads the encoding back with a sticky error: after any
// malformed read every subsequent read returns zero values, so decode
// routines can run straight through and check err once.
type decBuf struct {
	b   []byte
	off int
	err error
}

func (d *decBuf) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errCodec, what)
	}
}

func (d *decBuf) u8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("u8 past end")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decBuf) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decBuf) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and rejects values that could not
// possibly fit in the remaining bytes (each element costs at least
// one byte), so corrupt lengths cannot drive huge allocations.
func (d *decBuf) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off) {
		d.fail("count exceeds payload")
		return 0
	}
	return int(v)
}

func (d *decBuf) str() string {
	n := d.count()
	if d.err != nil || d.off+n > len(d.b) {
		d.fail("string past end")
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decBuf) point() geom.Point {
	return geom.Point{X: d.varint(), Y: d.varint()}
}

func (d *decBuf) rect() geom.Rect {
	return geom.Rect{XMin: d.varint(), YMin: d.varint(), XMax: d.varint(), YMax: d.varint()}
}

func (d *decBuf) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", errCodec, len(d.b)-d.off)
	}
	return nil
}

// --- netlist ---

func encodeNetlist(e *encBuf, nl *netlist.Netlist) {
	e.str(nl.Name)
	e.uvarint(uint64(len(nl.Nets)))
	for i := range nl.Nets {
		n := &nl.Nets[i]
		e.uvarint(uint64(len(n.Names)))
		for _, nm := range n.Names {
			e.str(nm)
		}
		e.point(n.Location)
		e.uvarint(uint64(len(n.Geometry)))
		for _, g := range n.Geometry {
			e.u8(byte(g.Layer))
			e.rect(g.Rect)
		}
	}
	e.uvarint(uint64(len(nl.Devices)))
	for i := range nl.Devices {
		d := &nl.Devices[i]
		e.u8(byte(d.Type))
		e.varint(int64(d.Gate))
		e.varint(int64(d.Source))
		e.varint(int64(d.Drain))
		e.varint(d.Length)
		e.varint(d.Width)
		e.varint(d.Area)
		e.varint(d.ImplArea)
		e.point(d.Location)
		e.uvarint(uint64(len(d.Terminals)))
		for _, t := range d.Terminals {
			e.varint(int64(t.Net))
			e.varint(t.Edge)
		}
		e.uvarint(uint64(len(d.Geometry)))
		for _, r := range d.Geometry {
			e.rect(r)
		}
	}
}

// decodeNetlist rebuilds a netlist, validating that every net index a
// device carries points inside the net table — the flattener indexes
// by them unconditionally.
func decodeNetlist(d *decBuf) *netlist.Netlist {
	nl := &netlist.Netlist{Name: d.str()}
	nNets := d.count()
	if d.err != nil {
		return nl
	}
	nl.Nets = make([]netlist.Net, nNets)
	for i := range nl.Nets {
		n := &nl.Nets[i]
		if c := d.count(); c > 0 {
			n.Names = make([]string, c)
			for j := range n.Names {
				n.Names[j] = d.str()
			}
		}
		n.Location = d.point()
		if c := d.count(); c > 0 {
			n.Geometry = make([]netlist.LayerRect, c)
			for j := range n.Geometry {
				n.Geometry[j] = netlist.LayerRect{Layer: tech.Layer(d.u8()), Rect: d.rect()}
			}
		}
		if d.err != nil {
			return nl
		}
	}
	nDevs := d.count()
	if d.err != nil {
		return nl
	}
	netIdx := func(v int64) int {
		if v < 0 || v >= int64(nNets) {
			d.fail("device net index out of range")
			return 0
		}
		return int(v)
	}
	nl.Devices = make([]netlist.Device, nDevs)
	for i := range nl.Devices {
		dev := &nl.Devices[i]
		dev.Type = tech.DeviceType(d.u8())
		dev.Gate = netIdx(d.varint())
		dev.Source = netIdx(d.varint())
		dev.Drain = netIdx(d.varint())
		dev.Length = d.varint()
		dev.Width = d.varint()
		dev.Area = d.varint()
		dev.ImplArea = d.varint()
		dev.Location = d.point()
		if c := d.count(); c > 0 {
			dev.Terminals = make([]netlist.Terminal, c)
			for j := range dev.Terminals {
				dev.Terminals[j] = netlist.Terminal{Net: netIdx(d.varint()), Edge: d.varint()}
			}
		}
		if c := d.count(); c > 0 {
			dev.Geometry = make([]geom.Rect, c)
			for j := range dev.Geometry {
				dev.Geometry[j] = d.rect()
			}
		}
		if d.err != nil {
			return nl
		}
	}
	return nl
}

// --- whole results ---

// encodeFlat serialises a design's whole result: the format version,
// the flattened netlist and the extraction's findings, every field of
// each.
func encodeFlat(nl *netlist.Netlist, ds []diag.Diagnostic) []byte {
	e := &encBuf{b: make([]byte, 0, 256)}
	e.u8(flatPayloadVersion)
	encodeNetlist(e, nl)
	e.uvarint(uint64(len(ds)))
	for _, dg := range ds {
		e.str(dg.Code)
		e.u8(byte(dg.Severity))
		e.str(dg.Stage)
		e.str(dg.Message)
		e.varint(int64(dg.Span.Offset))
		e.varint(int64(dg.Span.Line))
		e.varint(int64(dg.Span.Col))
		e.varint(int64(dg.Device))
		e.varint(int64(dg.Net))
	}
	return e.b
}

// decodeFlat reads back what encodeFlat wrote.
func decodeFlat(payload []byte) (*netlist.Netlist, []diag.Diagnostic, error) {
	d := &decBuf{b: payload}
	if v := d.u8(); v != flatPayloadVersion {
		return nil, nil, fmt.Errorf("%w: whole-result payload version %d", errCodec, v)
	}
	nl := decodeNetlist(d)
	var ds []diag.Diagnostic
	if c := d.count(); c > 0 {
		ds = make([]diag.Diagnostic, c)
		for i := range ds {
			dg := &ds[i]
			dg.Code = d.str()
			if dg.Severity = diag.Severity(d.u8()); dg.Severity < diag.Info || dg.Severity > diag.Error {
				d.fail("severity out of range")
			}
			dg.Stage = d.str()
			dg.Message = d.str()
			dg.Span = diag.Span{Offset: int(d.varint()), Line: int(d.varint()), Col: int(d.varint())}
			dg.Device, dg.Net = int(d.varint()), int(d.varint())
		}
	}
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return nl, ds, nil
}

// --- window trees ---

const (
	nodeTagLeaf = 0
	nodeTagComp = 1
)

// encodeWinTree serialises the complete result DAG under root as a
// flat record list in first-visit post-order (child 0's subtree,
// child 1's, then the node), deduplicated by pointer. That order is
// exactly the order the recursion assigns window ids in, so decoding
// the tree reproduces a cold run's ids — and with them the
// hierarchical wirelist — byte for byte.
func encodeWinTree(root *winResult) []byte {
	var order []*winResult
	index := map[*winResult]int{}
	var walk func(r *winResult)
	walk = func(r *winResult) {
		if _, seen := index[r]; seen {
			return
		}
		if r.comp != nil {
			walk(r.comp.kids[0])
			walk(r.comp.kids[1])
		}
		index[r] = len(order)
		order = append(order, r)
	}
	walk(root)

	e := &encBuf{b: make([]byte, 0, 1024)}
	e.u8(winPayloadVersion)
	e.uvarint(uint64(len(order)))
	encodeRef := func(rf ref) {
		e.u8(byte(rf.child))
		e.varint(int64(rf.idx))
	}
	for _, r := range order {
		if r.leaf != nil {
			e.u8(nodeTagLeaf)
		} else {
			e.u8(nodeTagComp)
		}
		e.varint(r.w)
		e.varint(r.h)
		e.uvarint(uint64(r.insts))
		e.varint(int64(r.netCount))
		e.varint(int64(r.partCount))
		e.uvarint(uint64(len(r.edges)))
		for _, eg := range r.edges {
			e.u8(byte(eg.layer))
			e.u8(byte(eg.face))
			e.varint(eg.lo)
			e.varint(eg.hi)
			e.varint(int64(eg.ref))
		}
		if r.leaf != nil {
			e.point(r.leaf.anchor)
			e.uvarint(uint64(r.leaf.boxes))
			e.uvarint(uint64(len(r.leaf.partDevs)))
			for _, di := range r.leaf.partDevs {
				e.varint(int64(di))
			}
			encodeNetlist(e, r.leaf.nl)
		} else {
			c := r.comp
			e.uvarint(uint64(index[c.kids[0]]))
			e.uvarint(uint64(index[c.kids[1]]))
			e.point(c.at[0])
			e.point(c.at[1])
			e.uvarint(uint64(len(c.netEquivs)))
			for _, eq := range c.netEquivs {
				encodeRef(eq[0])
				encodeRef(eq[1])
			}
			e.uvarint(uint64(len(c.partEquivs)))
			for _, eq := range c.partEquivs {
				encodeRef(eq[0])
				encodeRef(eq[1])
			}
			e.uvarint(uint64(len(c.partTerms)))
			for _, pt := range c.partTerms {
				encodeRef(pt.part)
				encodeRef(pt.net)
				e.varint(pt.edge)
			}
			e.uvarint(uint64(len(c.parentNets)))
			for _, rf := range c.parentNets {
				encodeRef(rf)
			}
			e.uvarint(uint64(len(c.parentParts)))
			for _, rf := range c.parentParts {
				encodeRef(rf)
			}
		}
	}
	return e.b
}

// decodeWinTree rebuilds a result DAG, numbering its windows 1, 2, ...
// in record order (= the recursion's post-order), as a cold run in a
// fresh session numbers them. Every cross-reference is validated: child
// indices must point at earlier records, refs must address existing
// child nets/partials, and leaf partial slots must address existing
// devices — so a decoded tree can be flattened without any index panic.
func decodeWinTree(payload []byte) (*winResult, error) {
	d := &decBuf{b: payload}
	if v := d.u8(); v != winPayloadVersion {
		return nil, fmt.Errorf("%w: win payload version %d", errCodec, v)
	}
	n := d.count()
	if d.err != nil {
		return nil, d.err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty tree", errCodec)
	}
	nodes := make([]*winResult, 0, n)
	for i := 0; i < n; i++ {
		tag := d.u8()
		r := &winResult{
			id: i + 1, w: d.varint(), h: d.varint(),
			insts:    int64(d.uvarint()),
			netCount: int(d.varint()), partCount: int(d.varint()),
		}
		if r.netCount < 0 || r.partCount < 0 {
			d.fail("negative counts")
		}
		if c := d.count(); c > 0 {
			r.edges = make([]edge, c)
			for j := range r.edges {
				eg := edge{
					layer: elayer(d.u8()), face: face(d.u8()),
					lo: d.varint(), hi: d.varint(), ref: int32(d.varint()),
				}
				if eg.layer < eMetal || eg.layer > eChan || eg.face < faceL || eg.face >= numFaces {
					d.fail("edge enum out of range")
				}
				refMax := int32(r.netCount)
				if eg.layer == eChan {
					refMax = int32(r.partCount)
				}
				if eg.ref < 0 || eg.ref >= refMax {
					d.fail("edge ref out of range")
				}
				r.edges[j] = eg
			}
		}
		switch tag {
		case nodeTagLeaf:
			ld := &leafData{anchor: d.point(), boxes: int(d.uvarint())}
			if c := d.count(); c > 0 {
				ld.partDevs = make([]int, c)
				for j := range ld.partDevs {
					ld.partDevs[j] = int(d.varint())
				}
			}
			ld.nl = decodeNetlist(d)
			for _, di := range ld.partDevs {
				if di < 0 || di >= len(ld.nl.Devices) {
					d.fail("partial device index out of range")
				}
			}
			if r.netCount != len(ld.nl.Nets) || r.partCount != len(ld.partDevs) {
				d.fail("leaf counts disagree with netlist")
			}
			if r.insts != 1 {
				d.fail("leaf insts != 1")
			}
			r.leaf = ld
			r.flat = leafCounts(ld.nl)
		case nodeTagComp:
			c := &compData{}
			k0, k1 := d.uvarint(), d.uvarint()
			if d.err == nil && (k0 >= uint64(len(nodes)) || k1 >= uint64(len(nodes))) {
				d.fail("child index out of range")
			}
			if d.err != nil {
				return nil, d.err
			}
			c.kids[0], c.kids[1] = nodes[k0], nodes[k1]
			c.at[0] = d.point()
			c.at[1] = d.point()
			decodeRef := func(counts func(*winResult) int) ref {
				rf := ref{child: int8(d.u8()), idx: int32(d.varint())}
				if rf.child < 0 || rf.child > 1 {
					d.fail("ref child out of range")
					return ref{}
				}
				if d.err == nil && (rf.idx < 0 || rf.idx >= int32(counts(c.kids[rf.child]))) {
					d.fail("ref idx out of range")
				}
				return rf
			}
			nets := func(w *winResult) int { return w.netCount }
			parts := func(w *winResult) int { return w.partCount }
			if cnt := d.count(); cnt > 0 {
				c.netEquivs = make([][2]ref, cnt)
				for j := range c.netEquivs {
					c.netEquivs[j] = [2]ref{decodeRef(nets), decodeRef(nets)}
				}
			}
			if cnt := d.count(); cnt > 0 {
				c.partEquivs = make([][2]ref, cnt)
				for j := range c.partEquivs {
					c.partEquivs[j] = [2]ref{decodeRef(parts), decodeRef(parts)}
				}
			}
			if cnt := d.count(); cnt > 0 {
				c.partTerms = make([]partTerm, cnt)
				for j := range c.partTerms {
					c.partTerms[j] = partTerm{
						part: decodeRef(parts), net: decodeRef(nets), edge: d.varint(),
					}
				}
			}
			if cnt := d.count(); cnt > 0 {
				c.parentNets = make([]ref, cnt)
				for j := range c.parentNets {
					c.parentNets[j] = decodeRef(nets)
				}
			}
			if cnt := d.count(); cnt > 0 {
				c.parentParts = make([]ref, cnt)
				for j := range c.parentParts {
					c.parentParts[j] = decodeRef(parts)
				}
			}
			if d.err == nil && (r.netCount != len(c.parentNets) || r.partCount != len(c.parentParts)) {
				d.fail("compose counts disagree with exports")
			}
			if d.err == nil && r.insts != c.kids[0].insts+c.kids[1].insts {
				d.fail("compose insts disagree with children")
			}
			r.comp = c
			r.flat = composedCounts(c)
		default:
			d.fail("unknown node tag")
		}
		if d.err != nil {
			return nil, d.err
		}
		nodes = append(nodes, r)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return nodes[len(nodes)-1], nil
}
