package wirelist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// writeOracle is the fmt-based writer the strconv renderer replaced:
// one Fprintf per token. It is the reference every rendering path
// must match byte for byte. It writes net names raw, so it agrees with
// Write only on names that need no quoting (see AppendName).
func writeOracle(w io.Writer, nl *netlist.Netlist, opt Options) error {
	ew := &oracleWriter{w: w}
	name := nl.Name
	if name == "" {
		name = "chip"
	}
	ew.printf("(DefPart %q\n", name)
	ew.printf("(DefPart nEnh (Export Source Gate Drain))\n")
	ew.printf("(DefPart nDep (Export Source Gate Drain))\n")
	ew.printf("(DefPart nCap (Export Source Gate Drain))\n")

	netName := func(i int) string { return fmt.Sprintf("N%d", i) }

	for i, d := range nl.Devices {
		ew.printf("(Part %s (InstName D%d) (Location %d %d)\n",
			d.Type, i, d.Location.X, d.Location.Y)
		ew.printf(" (T Gate %s) (T Source %s) (T Drain %s)\n",
			netName(d.Gate), netName(d.Source), netName(d.Drain))
		ew.printf(" (Channel (Length %d) (Width %d)", d.Length, d.Width)
		if opt.Geometry && len(d.Geometry) > 0 {
			ew.printf("\n  ( CIF \"")
			for _, r := range d.Geometry {
				ew.printf(" L NX; B L%d W%d C%d %d;", r.W(), r.H(), r.Center().X, r.Center().Y)
			}
			ew.printf(" \")")
		}
		ew.printf("))\n")
	}

	for i := range nl.Nets {
		n := &nl.Nets[i]
		ew.printf("(Net %s", netName(i))
		for _, nm := range n.Names {
			ew.printf(" %s", nm)
		}
		ew.printf(" (Location %d %d)", n.Location.X, n.Location.Y)
		if opt.Geometry && len(n.Geometry) > 0 {
			ew.printf("\n ( CIF \"")
			for _, g := range n.Geometry {
				r := g.Rect
				ew.printf(" L %s; B L%d W%d C%d %d;",
					g.Layer.CIFName(), r.W(), r.H(), r.Center().X, r.Center().Y)
			}
			ew.printf(" \")")
		}
		ew.printf(")\n")
	}

	ew.printf("(Local")
	for i := range nl.Nets {
		ew.printf(" %s", netName(i))
	}
	ew.printf(" ))\n")
	return ew.err
}

type oracleWriter struct {
	w   io.Writer
	err error
}

func (e *oracleWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func oracleString(nl *netlist.Netlist, opt Options) string {
	var sb strings.Builder
	_ = writeOracle(&sb, nl, opt)
	return sb.String()
}

// checkMatchesOracle renders nl through Write, through AppendTo onto a
// non-empty dst and through Format, and compares each with the oracle.
func checkMatchesOracle(t *testing.T, nl *netlist.Netlist, opt Options) {
	t.Helper()
	want := oracleString(nl, opt)
	var buf bytes.Buffer
	if err := Write(&buf, nl, opt); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("Write differs from the oracle at byte %d", firstDiff(got, want))
	}
	const prefix = "prefix kept\n"
	out, err := AppendTo([]byte(prefix), nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(out); got != prefix+want {
		t.Fatalf("AppendTo differs from prefix+oracle at byte %d", firstDiff(got, prefix+want))
	}
	if got := Format(nl, opt); got != want {
		t.Fatalf("Format differs from the oracle at byte %d", firstDiff(got, want))
	}
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestWriteMatchesOracle: every Table 5-1 chip, with and without
// geometry, renders exactly as the fmt writer did.
func TestWriteMatchesOracle(t *testing.T) {
	for _, w := range gen.BenchChips() {
		res, err := extract.File(w.File, extract.Options{KeepGeometry: true})
		if err != nil {
			t.Fatal(err)
		}
		res.Netlist.Name = w.Name
		for _, geo := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/geometry=%v", w.Name, geo), func(t *testing.T) {
				checkMatchesOracle(t, res.Netlist, Options{Geometry: geo})
			})
		}
	}
}

// TestWriteMatchesOracleEdgeCases: the values fmt formats through a
// fallback path render the same: int64 extremes, an unknown device
// type (device(%d)), out-of-range layers (L%d?), the empty name
// (chip), a %q-quoted name holding quotes, backslashes and invalid
// UTF-8, and an empty netlist.
func TestWriteMatchesOracleEdgeCases(t *testing.T) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	edge := &netlist.Netlist{
		Name: "q\"uo\\te \xff\xfe",
		Nets: []netlist.Net{
			{Names: []string{"VDD", "n\x07"}, Location: geom.Pt(lo, hi), Geometry: []netlist.LayerRect{
				{Layer: tech.Layer(-3), Rect: geom.Rect{XMin: lo, YMin: lo, XMax: hi, YMax: hi}},
				{Layer: tech.Layer(99), Rect: geom.Rect{XMin: -5, YMin: -7, XMax: 3, YMax: 1}},
			}},
			{Location: geom.Pt(0, -1)},
		},
		Devices: []netlist.Device{
			{Type: tech.DeviceType(7), Gate: 1, Source: 0, Drain: 1, Length: lo, Width: hi,
				Location: geom.Pt(hi, lo), Geometry: []geom.Rect{{XMin: lo, YMin: 0, XMax: 0, YMax: hi}}},
			{Type: tech.Capacitor, Gate: 0, Source: 1, Drain: 1, Length: 200, Width: 400},
		},
	}
	for name, nl := range map[string]*netlist.Netlist{
		"extremes": edge,
		"unnamed":  {Nets: edge.Nets, Devices: edge.Devices},
		"empty":    {},
	} {
		for _, geo := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/geometry=%v", name, geo), func(t *testing.T) {
				checkMatchesOracle(t, nl, Options{Geometry: geo})
			})
		}
	}
}

// fuzzBytes hands out fuzz input as netlist fields; once it runs dry
// every read returns zero, so any input builds a netlist.
type fuzzBytes []byte

func (f *fuzzBytes) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

// int returns a coordinate-like value: the int64 extremes, a small
// signed number or eight raw bytes, chosen by a selector byte.
func (f *fuzzBytes) int() int64 {
	switch sel := f.byte(); sel % 4 {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return int64(int8(f.byte()))
	default:
		var raw [8]byte
		for i := range raw {
			raw[i] = f.byte()
		}
		return int64(binary.LittleEndian.Uint64(raw[:]))
	}
}

func (f *fuzzBytes) rect() geom.Rect {
	return geom.Rect{XMin: f.int(), YMin: f.int(), XMax: f.int(), YMax: f.int()}
}

// str returns a string of up to 7 bytes.
func (f *fuzzBytes) str() string {
	n := int(f.byte() % 8)
	b := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, f.byte())
	}
	return string(b)
}

// fuzzNetlist builds a netlist from fuzz bytes: device types and layers
// beyond the known ones, int64 extremes everywhere, names of any bytes.
func fuzzNetlist(data []byte, name string) *netlist.Netlist {
	f := fuzzBytes(data)
	nl := &netlist.Netlist{Name: name}
	nets := int(f.byte() % 6)
	for i := 0; i < nets; i++ {
		n := netlist.Net{Location: geom.Pt(f.int(), f.int())}
		for k := int(f.byte() % 3); k > 0; k-- {
			n.Names = append(n.Names, f.str())
		}
		for k := int(f.byte() % 3); k > 0; k-- {
			n.Geometry = append(n.Geometry, netlist.LayerRect{
				Layer: tech.Layer(int8(f.byte())), Rect: f.rect(),
			})
		}
		nl.Nets = append(nl.Nets, n)
	}
	if nets == 0 {
		return nl
	}
	for k := int(f.byte() % 5); k > 0; k-- {
		d := netlist.Device{
			Type:     tech.DeviceType(int8(f.byte() % 5)),
			Gate:     int(f.byte()) % nets,
			Source:   int(f.byte()) % nets,
			Drain:    int(f.byte()) % nets,
			Length:   f.int(),
			Width:    f.int(),
			Location: geom.Pt(f.int(), f.int()),
		}
		for g := int(f.byte() % 3); g > 0; g-- {
			d.Geometry = append(d.Geometry, f.rect())
		}
		nl.Devices = append(nl.Devices, d)
	}
	return nl
}

// needsQuote reports whether AppendName quotes a name.
func needsQuote(name string) bool {
	return string(AppendName(nil, name)) != name
}

// FuzzWriteMatchesOracle: any netlist whose net names need no quoting
// renders exactly as the fmt writer renders it, on every path. The
// DefPart name is always %q-quoted, so it may hold anything.
func FuzzWriteMatchesOracle(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte{3, 0, 1, 2, 5, 'V', 'D', 'D', '?', '!', 1, 7, 0, 0, 0, 0, 4, 9, 9, 9, 9, 200, 8}, `chip "q" \x`)
	f.Add([]byte{1, 0, 0, 1, 3, 'a', 'b', 'c', 2, 250, 0, 1, 0, 1, 2, 3}, "\xff\xfe")
	f.Add([]byte{2, 1, 1, 0, 0, 1, 0, 0, 2, 4, 4, 0, 1, 0, 1, 1, 2, 2, 3}, "x")
	f.Fuzz(func(t *testing.T, data []byte, name string) {
		nl := fuzzNetlist(data, name)
		for i := range nl.Nets {
			for _, nm := range nl.Nets[i].Names {
				if needsQuote(nm) {
					return
				}
			}
		}
		for _, geo := range []bool{false, true} {
			checkMatchesOracle(t, nl, Options{Geometry: geo})
		}
	})
}

// FuzzWriteParseRoundTrip: whatever the names hold, Parse reads back
// what Write wrote — an equivalent netlist with the same net names and
// the same DefPart name.
func FuzzWriteParseRoundTrip(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte{2, 2, 0, 1, 3, 'x', ')', 'y', 3, 'q', '"', 'r', 0, 2, 1, 1, 0, 0, 1, 0, 2, 2, 2, 2, 2, 0}, "chip")
	f.Add([]byte{2, 2, 0, 2, 0, 2, '\\', ' ', 0, 2, 1, 1, 0, 2, 1, 1, 0, 0, 0}, `a "b" \c`)
	f.Add([]byte{1, 2, 0, 1, 2, 0xff, '(', 0, 1, 0, 0, 0, 2, 2, 2, 2, 2}, "\xff")
	f.Fuzz(func(t *testing.T, data []byte, name string) {
		nl := fuzzNetlist(data, name)
		// Parse rejects part types it does not know; keep the fuzzed
		// devices to the three it does.
		for i := range nl.Devices {
			if d := &nl.Devices[i]; d.Type > tech.Capacitor || d.Type < 0 {
				d.Type = tech.Enhancement
			}
		}
		text := Format(nl, Options{})
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, text)
		}
		wantName := name
		if wantName == "" {
			wantName = "chip"
		}
		if back.Name != wantName {
			t.Fatalf("DefPart name %q, want %q", back.Name, wantName)
		}
		if eq, reason := netlist.Equivalent(nl, back); !eq {
			t.Fatalf("not equivalent: %s\n%s", reason, text)
		}
		// Parse numbers nets in order of first reference: device
		// terminals first, then the Net statements.
		idx := map[int]int{}
		see := func(n int) {
			if _, ok := idx[n]; !ok {
				idx[n] = len(idx)
			}
		}
		for _, d := range nl.Devices {
			see(d.Gate)
			see(d.Source)
			see(d.Drain)
		}
		for i := range nl.Nets {
			see(i)
		}
		for i := range nl.Nets {
			got, want := back.Nets[idx[i]].Names, nl.Nets[i].Names
			if len(got) != len(want) {
				t.Fatalf("net N%d names %q, want %q\n%s", i, got, want, text)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("net N%d names %q, want %q\n%s", i, got, want, text)
				}
			}
		}
	})
}

// countingWriter counts Write calls and fails on call failAt (1-based;
// zero never fails).
type countingWriter struct {
	calls, failAt int
	bytes         int
}

var errInjected = errors.New("injected write failure")

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	if c.calls == c.failAt {
		return 0, errInjected
	}
	if c.failAt > 0 && c.calls > c.failAt {
		panic("write after a failed write")
	}
	c.bytes += len(p)
	return len(p), nil
}

// TestWriteChunks pins Write's I/O shape: at most ⌈len/32 KiB⌉+1 write
// calls, and after a failed call no further calls and that error back.
func TestWriteChunks(t *testing.T) {
	res, err := extract.File(gen.MustBenchChip("riscb").File, extract.Options{KeepGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, geo := range []bool{false, true} {
		opt := Options{Geometry: geo}
		size := len(Format(res.Netlist, opt))
		var cw countingWriter
		if err := Write(&cw, res.Netlist, opt); err != nil {
			t.Fatal(err)
		}
		limit := (size+chunkSize-1)/chunkSize + 1
		if cw.bytes != size || cw.calls > limit {
			t.Fatalf("geometry=%v: %d calls for %d bytes (wrote %d), want at most %d calls",
				geo, cw.calls, size, cw.bytes, limit)
		}
		if cw.calls < 3 {
			t.Fatalf("geometry=%v: %d calls; the chip is too small to test failures", geo, cw.calls)
		}
		for _, k := range []int{1, 2, cw.calls} {
			fw := countingWriter{failAt: k}
			if err := Write(&fw, res.Netlist, opt); !errors.Is(err, errInjected) {
				t.Fatalf("fail on call %d: got %v, want the injected error", k, err)
			}
			if fw.calls != k {
				t.Fatalf("fail on call %d: writer got %d calls", k, fw.calls)
			}
		}
	}
}

// TestAppendToAllocs: rendering into a buffer with room allocates
// nothing.
func TestAppendToAllocs(t *testing.T) {
	res, err := extract.File(gen.MustBenchChip("cherry").File, extract.Options{KeepGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	res.Netlist.Name = "cherry"
	for _, geo := range []bool{false, true} {
		opt := Options{Geometry: geo}
		buf := make([]byte, 0, 2*len(Format(res.Netlist, opt)))
		avg := testing.AllocsPerRun(10, func() {
			buf, _ = AppendTo(buf[:0], res.Netlist, opt)
		})
		if avg != 0 {
			t.Errorf("geometry=%v: AppendTo allocates %.1f allocs/op, want 0", geo, avg)
		}
	}
}
