// Package wirelist reads and writes the CMU hierarchical wirelist
// format of Frank, Ebeling and Sproull — the LISP-like syntax of
// Figures 3-4 and 2-2 ("easy to parse and extend").
//
// The flat form (this package's Write/Parse) carries a DefPart
// containing Part statements for each transistor and Net statements
// for each net. The hierarchical form (written by internal/hext)
// nests DefParts. The original V085 format specification is lost;
// token spellings follow the paper's figures (see DESIGN.md §6).
package wirelist

import (
	"io"
	"strconv"

	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// Options configures wirelist output.
type Options struct {
	// Geometry includes the CIF geometry of every net and device
	// (ACE's user option; suppressed under normal operation).
	Geometry bool
}

// chunkSize is the amount a streaming Sink renders before handing it
// to its writer: one write call per chunk instead of one per token,
// and the memory of one chunk instead of the whole rendering.
const chunkSize = 32 << 10

// Sink is the buffer both wirelist writers render through: this
// package's flat writer and internal/hext's hierarchical one. Tokens
// are appended to its buffer. A Sink from NewSink streams: Spill,
// called after each token group, hands the buffer to the writer once
// it holds chunkSize bytes or more. The Sink AppendTo uses has no
// writer and only appends.
type Sink struct {
	buf []byte
	w   io.Writer
	err error
}

// NewSink returns a Sink that streams to w through one chunk-sized
// buffer.
func NewSink(w io.Writer) *Sink {
	return &Sink{buf: make([]byte, 0, chunkSize+chunkSize/8), w: w}
}

// Str appends text.
func (s *Sink) Str(text string) { s.buf = append(s.buf, text...) }

// Int appends text and then v in decimal: most wirelist tokens are a
// keyword or separator followed by a number.
func (s *Sink) Int(text string, v int64) {
	s.buf = strconv.AppendInt(append(s.buf, text...), v, 10)
}

// Name appends a net name as an atom (see AppendName).
func (s *Sink) Name(name string) { s.buf = AppendName(s.buf, name) }

// Spill writes the buffer out if it holds a chunk or more. It is a
// no-op without a writer.
func (s *Sink) Spill() {
	if s.w != nil && len(s.buf) >= chunkSize {
		s.write()
	}
}

// Flush writes whatever the buffer holds and returns the first error
// the writer returned. After an error the Sink writes nothing more.
func (s *Sink) Flush() error {
	if s.w != nil && len(s.buf) > 0 {
		s.write()
	}
	return s.err
}

func (s *Sink) write() {
	if s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// AppendName appends a net name as a wirelist atom. A name that is
// empty, or holds a parenthesis, quote, backslash or whitespace, would
// not read back as one atom, so it is written as a Go-quoted string
// (AtomName unquotes it); every other name is written as is.
func AppendName(dst []byte, name string) []byte {
	if name == "" {
		return append(dst, `""`...)
	}
	for i := 0; i < len(name); i++ {
		switch name[i] {
		case '(', ')', '"', '\\', ' ', '\t', '\n', '\r', '\v', '\f':
			return strconv.AppendQuote(dst, name)
		}
	}
	return append(dst, name...)
}

// Write emits a flat netlist in the Figure 3-4 style. It streams
// through one chunkSize buffer, so a large chip costs one write call
// per chunk and no more memory than a chunk (plus the longest token).
// The first error from w is returned, and nothing is written after it.
func Write(w io.Writer, nl *netlist.Netlist, opt Options) error {
	s := NewSink(w)
	render(s, nl, opt)
	return s.Flush()
}

// Format renders a netlist to a string.
func Format(nl *netlist.Netlist, opt Options) string {
	b, _ := AppendTo(nil, nl, opt)
	return string(b)
}

// AppendTo renders a netlist onto dst and returns the extended slice.
// It allocates only when dst lacks the capacity, so an extract.Engine
// output buffer (or any caller-kept slice) absorbs repeated renderings
// without allocating. The bytes are identical to Write's; the error is
// always nil.
func AppendTo(dst []byte, nl *netlist.Netlist, opt Options) ([]byte, error) {
	s := Sink{buf: dst}
	render(&s, nl, opt)
	return s.buf, nil
}

// render appends the flat wirelist to s, spilling after every token
// group.
func render(s *Sink, nl *netlist.Netlist, opt Options) {
	name := nl.Name
	if name == "" {
		name = "chip"
	}
	s.Str("(DefPart ")
	s.buf = strconv.AppendQuote(s.buf, name)
	s.Str("\n(DefPart nEnh (Export Source Gate Drain))\n" +
		"(DefPart nDep (Export Source Gate Drain))\n" +
		"(DefPart nCap (Export Source Gate Drain))\n")

	for i := range nl.Devices {
		d := &nl.Devices[i]
		s.Str("(Part ")
		s.Str(d.Type.String())
		s.Int(" (InstName D", int64(i))
		s.Int(") (Location ", d.Location.X)
		s.Int(" ", d.Location.Y)
		s.Int(")\n (T Gate N", int64(d.Gate))
		s.Int(") (T Source N", int64(d.Source))
		s.Int(") (T Drain N", int64(d.Drain))
		s.Int(")\n (Channel (Length ", d.Length)
		s.Int(") (Width ", d.Width)
		s.Str(")")
		if opt.Geometry && len(d.Geometry) > 0 {
			s.Str("\n  ( CIF \"")
			for _, g := range d.Geometry {
				s.Str(" L NX;")
				cifBox(s, g)
			}
			s.Str(" \")")
		}
		s.Str("))\n")
		s.Spill()
	}

	for i := range nl.Nets {
		n := &nl.Nets[i]
		s.Int("(Net N", int64(i))
		for _, nm := range n.Names {
			s.Str(" ")
			s.Name(nm)
			s.Spill()
		}
		s.Int(" (Location ", n.Location.X)
		s.Int(" ", n.Location.Y)
		s.Str(")")
		if opt.Geometry && len(n.Geometry) > 0 {
			s.Str("\n ( CIF \"")
			for _, g := range n.Geometry {
				s.Str(" L ")
				s.Str(g.Layer.CIFName())
				s.Str(";")
				cifBox(s, g.Rect)
			}
			s.Str(" \")")
		}
		s.Str(")\n")
		s.Spill()
	}

	s.Str("(Local")
	for i := range nl.Nets {
		s.Int(" N", int64(i))
		s.Spill()
	}
	s.Str(" ))\n")
}

// cifBox appends the geometry command " B L<w> W<h> C<cx> <cy>;".
func cifBox(s *Sink, r geom.Rect) {
	c := r.Center()
	s.Int(" B L", r.W())
	s.Int(" W", r.H())
	s.Int(" C", c.X)
	s.Int(" ", c.Y)
	s.Str(";")
	s.Spill()
}

// deviceTypeByName maps the wirelist part names back to device types.
func deviceTypeByName(s string) (tech.DeviceType, bool) {
	switch s {
	case "nEnh":
		return tech.Enhancement, true
	case "nDep":
		return tech.Depletion, true
	case "nCap":
		return tech.Capacitor, true
	}
	return 0, false
}
