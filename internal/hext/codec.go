package hext

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// This file holds the versioned payloads of the persistent cache
// (internal/store), two entries per design: the whole result (the
// flattened netlist plus the extraction's findings) in a binary
// encoding, and the hierarchical wirelist, the window DAG's only
// serialization, as text. The store layer already guarantees the bytes
// are exactly what a previous run wrote for exactly this key — magic,
// version, full key and checksum are verified there — but the
// whole-result decoder still bounds-checks every read and validates
// every cross-reference, so even a hostile cache file can only produce
// a decode error (a miss, recomputed), never a panic or a wrong
// netlist. The wirelist is copied out as stored, never decoded.

// Payload format versions, separate from the store's container
// version: bump when the payloads below change shape. An entry of
// another version fails to decode and is extracted again. Version 1
// whole results held warning strings. Versions 1 and 2 of the "w:"
// entry held a binary window tree (version 1's records carried memo
// keys); version 3 holds the hierarchical wirelist.
const (
	flatPayloadVersion = 2
	winPayloadVersion  = 3
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

// --- hierarchical wirelists ---

// hierPayload is a design's "w:" entry: the payload version, then the
// hierarchical wirelist of the result DAG under root, byte for byte as
// WriteHierarchical writes it.
func hierPayload(root *winResult) []byte {
	var b bytes.Buffer
	b.WriteByte(winPayloadVersion)
	_ = writeHier(&b, root) // writes to a bytes.Buffer never fail
	return b.Bytes()
}
