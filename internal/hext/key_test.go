package hext

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"ace/internal/cif"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/tech"
)

func newTestEnv(f *cif.File) *env {
	return NewSession(Options{}).newEnv(nil, f)
}

// translateFile returns a copy of f with every top-level item moved by
// (dx, dy) — i.e. the whole design translated.
func translateFile(t *testing.T, f *cif.File, dx, dy int64) *cif.File {
	t.Helper()
	out := &cif.File{Symbols: f.Symbols}
	d := geom.Pt(dx, dy)
	for _, it := range f.Top {
		switch it.Kind {
		case cif.ItemBox:
			it.Box = it.Box.Translate(d)
		case cif.ItemCall:
			it.Trans = it.Trans.Then(geom.Translate(dx, dy))
		case cif.ItemLabel:
			it.At = it.At.Add(d)
		default:
			t.Fatalf("translateFile: unhandled item kind %v", it.Kind)
		}
		out.Top = append(out.Top, it)
	}
	return out
}

// Translating a whole design must leave every window key unchanged:
// re-extracting the translated design in the same session answers
// every window from the memo table and every sweep from the content
// cache.
func TestKeysTranslationInvariant(t *testing.T) {
	for _, off := range [][2]int64{{123457, 0}, {0, -98765}, {31, 17}, {-100000, 100000}} {
		w := gen.Memory(6, 6)
		s := NewSession(Options{})
		res1, err := s.Extract(w.File)
		if err != nil {
			t.Fatal(err)
		}
		f2 := translateFile(t, w.File, off[0], off[1])
		res2, err := s.Extract(f2)
		if err != nil {
			t.Fatal(err)
		}
		c := res2.Counters
		if c.UniqueWindows != 0 || c.FlatCalls != 0 || c.ComposeCalls != 0 {
			t.Fatalf("offset %v: translated design re-planned windows: unique=%d flat=%d compose=%d",
				off, c.UniqueWindows, c.FlatCalls, c.ComposeCalls)
		}
		if c.CacheMisses != 0 || c.LeafSweeps != 0 {
			t.Fatalf("offset %v: translated design re-swept content: misses=%d sweeps=%d",
				off, c.CacheMisses, c.LeafSweeps)
		}
		if len(res2.Netlist.Devices) != len(res1.Netlist.Devices) ||
			len(res2.Netlist.Nets) != len(res1.Netlist.Nets) {
			t.Fatalf("offset %v: translated netlist differs: %s vs %s",
				off, res1.Netlist.Stats(), res2.Netlist.Stats())
		}
	}
}

// The content key must not change when the content is translated
// inside a (possibly different) frame: that is the sharing the sweep
// cache is built on.
func TestContentKeyTranslationInvariant(t *testing.T) {
	e := newTestEnv(&cif.File{})
	items := []witem{
		{kind: cif.ItemBox, layer: tech.Metal, box: geom.R(2, 3, 12, 7)},
		{kind: cif.ItemBox, layer: tech.Poly, box: geom.R(5, 0, 8, 20)},
		{kind: cif.ItemBox, layer: tech.Diff, box: geom.R(0, 5, 20, 9)},
		e.labelItem("A", geom.Pt(6, 6), tech.Metal, true),
	}
	base := window{w: 30, h: 30, items: items}
	bb, lb, ab := e.leafContent(base)
	kb := contentKey(new(canonKey), bb, lb, ab)

	for _, off := range [][2]int64{{7, 13}, {100, 0}, {0, 55}} {
		moved := window{w: 200, h: 150}
		d := geom.Pt(off[0], off[1])
		for _, it := range items {
			it.box = it.box.Translate(d)
			moved.items = append(moved.items, it)
		}
		bm, lm, am := e.leafContent(moved)
		km := contentKey(new(canonKey), bm, lm, am)
		if !bytes.Equal(km, kb) {
			t.Fatalf("offset %v: content key changed under translation", off)
		}
	}

	// Item order must not matter either (cached sweeps are shared
	// between windows that assembled the same content differently).
	rev := window{w: 30, h: 30}
	for i := len(items) - 1; i >= 0; i-- {
		rev.items = append(rev.items, items[i])
	}
	br, lr, ar := e.leafContent(rev)
	if !bytes.Equal(contentKey(new(canonKey), br, lr, ar), kb) {
		t.Fatal("content key depends on item order")
	}
}

// Gen-driven collision check: the content cache is a map keyed by the
// full content key, so two windows share a sweep exactly when their keys
// are equal. Leave-one-out over a statistical design gives n+1 closely
// related contents; each must key differently from the whole, and
// perturbing one box must change the key.
func TestContentKeyHashCollisionFree(t *testing.T) {
	w := gen.Statistical(500, 9)
	e := newTestEnv(w.File)
	win, _, ok := e.newTopWindow(w.File.Top)
	if !ok {
		t.Fatal("no geometry")
	}
	for win.hasCalls() {
		win = e.expandOne(win)
	}
	key := func(wn window) []byte {
		bs, ls, a := e.leafContent(wn)
		return contentKey(new(canonKey), bs, ls, a)
	}
	whole := key(win)
	for i, it := range win.items {
		if it.kind == cif.ItemBox && it.box.Empty() {
			continue // leafContent drops empty boxes
		}
		loo := window{w: win.w, h: win.h}
		loo.items = append(loo.items, win.items[:i]...)
		loo.items = append(loo.items, win.items[i+1:]...)
		if bytes.Equal(key(loo), whole) {
			t.Fatalf("removing item %d left the content key unchanged", i)
		}
	}
	perturbed := window{w: win.w, h: win.h, items: append([]witem(nil), win.items...)}
	perturbed.items[0].box = perturbed.items[0].box.Translate(geom.Pt(1, 0))
	if bytes.Equal(key(perturbed), whole) {
		t.Fatal("perturbed content has identical key")
	}
}

// canonKey.finish must emit the records in the byte order of their
// encodings. The reference here encodes every record on its own and
// sorts the encodings with bytes.Compare. Values are drawn from small
// sets, so records tie on every prefix length, fields vary in some keys
// and not in others, and values differing only in their high bytes or
// sign exercise the byte-reversed comparison.
func TestCanonKeyMatchesByteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	vals := []int64{0, 1, -1, 2, 255, 256, -256, 1 << 40, 1 << 56, -1 << 56}
	val := func() int64 { return vals[rng.Intn(len(vals))] }
	le := binary.LittleEndian
	var k canonKey
	for trial := 0; trial < 3000; trial++ {
		k.reset()
		var recs [][]byte
		for i, n := 0, rng.Intn(40); i < n; i++ {
			var rec []byte
			switch rng.Intn(3) {
			case 0:
				layer := tech.Layer(rng.Intn(3))
				r := geom.Rect{XMin: val(), YMin: val(), XMax: val(), YMax: val()}
				k.box(layer, r)
				rec = append([]byte{0, byte(layer)}, appendI64(nil, r.XMin, r.YMin, r.XMax, r.YMax)...)
			case 1:
				hash := uint64(rng.Intn(3)) << (8 * rng.Intn(8))
				tr := geom.Transform{A: val(), B: val(), C: val(), D: val(), E: val(), F: val()}
				k.call(hash, tr)
				rec = le.AppendUint64([]byte{1}, hash)
				rec = appendI64(rec, tr.A, tr.B, tr.C, tr.D, tr.E, tr.F)
			case 2:
				at := geom.Pt(val(), val())
				layer, has := tech.Layer(rng.Intn(2)), rng.Intn(2) == 1
				name := []string{"", "A", "AB", "B", "a"}[rng.Intn(5)]
				k.label(at, layer, has, name)
				var l byte
				if has {
					l = 1
				}
				rec = appendI64([]byte{2}, at.X, at.Y)
				rec = append(append(rec, byte(layer), l), name...)
			}
			recs = append(recs, rec)
		}
		slices.SortFunc(recs, bytes.Compare)
		want := []byte("hdr")
		for _, rec := range recs {
			want = append(want, byte(len(rec)), byte(len(rec)>>8))
			want = append(want, rec...)
		}
		if got := k.finish([]byte("hdr")); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d records): key differs from the byte-sorted records", trial, len(recs))
		}
	}
}
