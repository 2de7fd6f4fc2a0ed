package tile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/scan"
	"ace/internal/tech"
)

// genBoxes builds a deterministic pseudo-random design: n boxes over a
// coordinate range wide enough to span many tiles, with a few tall
// boxes that cross row (and band) boundaries.
func genBoxes(seed int64, n int) []frontend.Box {
	rng := rand.New(rand.NewSource(seed))
	boxes := make([]frontend.Box, n)
	for i := range boxes {
		x := rng.Int63n(20000) - 10000
		y := rng.Int63n(20000) - 10000
		w := rng.Int63n(400) + 1
		h := rng.Int63n(400) + 1
		if rng.Intn(20) == 0 {
			h = rng.Int63n(8000) + 1000 // tall: spans rows and cuts
		}
		boxes[i] = frontend.Box{
			Layer: tech.Layer(rng.Intn(tech.NumLayers)),
			Rect:  geom.Rect{XMin: x, YMin: y, XMax: x + w, YMax: y + h},
		}
	}
	scan.SortTopDown(boxes)
	return boxes
}

func bboxOf(boxes []frontend.Box) geom.Rect {
	bb := boxes[0].Rect
	for _, b := range boxes[1:] {
		bb = bb.Union(b.Rect)
	}
	return bb
}

// pack writes boxes+labels into an in-memory tile file.
func pack(t *testing.T, boxes []frontend.Box, labels []frontend.Label, cols, rows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, NewGrid(bboxOf(boxes), cols, rows))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, l := range labels {
		w.AddLabel(l)
	}
	for _, b := range boxes {
		if err := w.Add(b); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func open(t *testing.T, raw []byte) *Reader {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

func drainIter(t *testing.T, it *Iter) []frontend.Box {
	t.Helper()
	var out []frontend.Box
	lastTop := int64(0)
	first := true
	for {
		top, ok := it.NextTop()
		if !ok {
			break
		}
		b, ok := it.Next()
		if !ok {
			t.Fatalf("NextTop says more, Next disagrees")
		}
		if b.Rect.YMax != top {
			t.Fatalf("NextTop %d but box top %d", top, b.Rect.YMax)
		}
		if !first && top > lastTop {
			t.Fatalf("tops not non-increasing: %d after %d", top, lastTop)
		}
		first, lastTop = false, top
		out = append(out, b)
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return out
}

// canon sorts a box slice into the canonical total order so multisets
// compare as slices.
func canon(boxes []frontend.Box) []frontend.Box {
	out := append([]frontend.Box(nil), boxes...)
	scan.SortTopDown(out)
	return out
}

// TestVersionOneRefused: a file whose header says version 1 (FNV-64a
// checksums, an otherwise equal layout) is refused with a CorruptError
// naming the version; cifpack re-packs it.
func TestVersionOneRefused(t *testing.T) {
	raw := pack(t, genBoxes(2, 1500), nil, 8, 8)
	binary.LittleEndian.PutUint32(raw[4:], 1)
	_, err := NewReader(bytes.NewReader(raw), int64(len(raw)))
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Region != "header" || !strings.Contains(ce.Msg, "version 1,") {
		t.Fatalf("got %v, want a header *CorruptError naming version 1", err)
	}
}

func TestRoundTrip(t *testing.T) {
	boxes := genBoxes(1, 3000)
	labels := []frontend.Label{
		{Name: "vdd", At: geom.Pt(10, 20)},
		{Name: "gnd", At: geom.Pt(-5, 7), Layer: tech.Metal, HasLayer: true},
	}
	raw := pack(t, boxes, labels, 8, 8)
	r := open(t, raw)
	if r.NumBoxes() != int64(len(boxes)) {
		t.Fatalf("NumBoxes %d, want %d", r.NumBoxes(), len(boxes))
	}
	if !reflect.DeepEqual(r.Labels(), labels) {
		t.Fatalf("labels roundtrip: got %+v", r.Labels())
	}
	got := drainIter(t, r.ReadBand(WholeChip()))
	if !reflect.DeepEqual(canon(got), canon(boxes)) {
		t.Fatalf("whole-chip read is not the packed multiset: %d vs %d boxes", len(got), len(boxes))
	}
	if io := r.Counters(); io.TilesDecoded != r.NonEmptyTiles() {
		t.Fatalf("whole-chip read decoded %d tiles, %d non-empty", io.TilesDecoded, r.NonEmptyTiles())
	}
}

// packDigest pins the bytes TestDeterministicBytes packs: the layout,
// the record order and the checksums. A change to any of them fails
// here until the digest is re-recorded, and it must come with a
// Version bump, so that no reader takes an old file for a new one.
const packDigest = "4ab4117a2217162a34e6d2ac413bf42e66ccee573a39b223348d0436653ebda4" // Version 2

func TestDeterministicBytes(t *testing.T) {
	boxes := genBoxes(2, 1500)
	raw1 := pack(t, boxes, nil, 8, 8)
	if got := fmt.Sprintf("%x", sha256.Sum256(raw1)); got != packDigest {
		t.Fatalf("pack digest %s, want %s: the file format changed (bump Version and re-record)", got, packDigest)
	}
	// Permute ties: reverse runs of equal tops. The input stays a legal
	// descending-top stream but arrives in a different order.
	perm := append([]frontend.Box(nil), boxes...)
	for i := 0; i < len(perm); {
		j := i
		for j < len(perm) && perm[j].Rect.YMax == perm[i].Rect.YMax {
			j++
		}
		for a, b := i, j-1; a < b; a, b = a+1, b-1 {
			perm[a], perm[b] = perm[b], perm[a]
		}
		i = j
	}
	raw2 := pack(t, perm, nil, 8, 8)
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("same multiset packed to different bytes")
	}
}

// cutWindows returns the full-width windows between consecutive y
// edges of the chip's top, the cuts (a descending list of box tops)
// and a bottom just below the chip's: window k covers (edge k+1,
// edge k].
func cutWindows(bb geom.Rect, cuts []int64) []geom.Rect {
	edges := append(append([]int64{bb.YMax}, cuts...), bb.YMin-1)
	wins := make([]geom.Rect, len(edges)-1)
	for k := range wins {
		wins[k] = geom.Rect{XMin: bb.XMin - 1, YMin: edges[k+1], XMax: bb.XMax + 1, YMax: edges[k]}
	}
	return wins
}

// refPartition implements, for full-width windows, the clip contract
// of a read's Band: window k covers (YMin, YMax]; boxes clip to their
// windows, a top exactly on an edge goes to the window below it, and a
// zero-height box on an edge goes to neither.
func refPartition(boxes []frontend.Box, wins []geom.Rect) [][]frontend.Box {
	out := make([][]frontend.Box, len(wins))
	for k, win := range wins {
		for _, b := range boxes {
			if b.Rect.YMax <= win.YMin || b.Rect.YMin >= win.YMax {
				continue
			}
			r := b.Rect
			r.YMax = min(r.YMax, win.YMax)
			r.YMin = max(r.YMin, win.YMin)
			out[k] = append(out[k], frontend.Box{Layer: b.Layer, Rect: r})
		}
	}
	return out
}

// quantileCuts picks window edges from a descending-top box list: the
// distinct tops at box-count quantile ranks k*n/parts that lie below
// the highest top, so every edge is a scanline stop.
func quantileCuts(boxes []frontend.Box, parts int) []int64 {
	var cuts []int64
	n := len(boxes)
	for k := 1; k < parts; k++ {
		if c := boxes[k*n/parts].Rect.YMax; c < boxes[0].Rect.YMax && !slices.Contains(cuts, c) {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// TestBandReadMatchesPartition: full-width windows cut at box tops
// read exactly the boxes refPartition clips into them, however many
// windows the chip is cut into.
func TestBandReadMatchesPartition(t *testing.T) {
	boxes := genBoxes(3, 4000)
	r := open(t, pack(t, boxes, nil, 16, 16))
	for _, parts := range []int{2, 3, 4, 7} {
		wins := cutWindows(r.BBox(), quantileCuts(boxes, parts))
		want := refPartition(boxes, wins)
		for k, win := range wins {
			got := drainIter(t, r.ReadWindow(win))
			if !reflect.DeepEqual(canon(got), canon(want[k])) {
				t.Fatalf("parts=%d window %d of %d: %d boxes, want %d",
					parts, k, len(wins), len(got), len(want[k]))
			}
		}
	}
}

// offsetRecorder is an io.ReaderAt that records the offset of every
// read. A tile payload is one read at its index offset, so the
// distinct offsets an iterator reads are the distinct tiles it reads.
type offsetRecorder struct {
	r    io.ReaderAt
	offs map[int64]bool
}

func (o *offsetRecorder) ReadAt(p []byte, off int64) (int, error) {
	o.offs[off] = true
	return o.r.ReadAt(p, off)
}

// TestWindowRead checks each window's boxes against the clipped
// design, and that the read decodes every tile it reads once.
func TestWindowRead(t *testing.T) {
	boxes := genBoxes(4, 4000)
	raw := pack(t, boxes, nil, 16, 16)
	rec := &offsetRecorder{r: bytes.NewReader(raw), offs: map[int64]bool{}}
	r, err := NewReader(rec, int64(len(raw)))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	windows := []geom.Rect{
		{XMin: -2000, YMin: -2000, XMax: 2000, YMax: 2000},
		{XMin: -11000, YMin: -11000, XMax: 23000, YMax: 23000}, // whole chip
		{XMin: 0, YMin: 0, XMax: 1, YMax: 1},                   // near-point
		{XMin: 9000, YMin: -9500, XMax: 9800, YMax: -9000},
	}
	for _, win := range windows {
		var want []frontend.Box
		for _, b := range boxes {
			if !b.Rect.Overlaps(win) {
				continue
			}
			c := b.Rect.Intersect(win)
			want = append(want, frontend.Box{Layer: b.Layer, Rect: c})
		}
		rec.offs = map[int64]bool{}
		io0 := r.Counters()
		got := drainIter(t, r.ReadWindow(win))
		if !reflect.DeepEqual(canon(got), canon(want)) {
			t.Fatalf("window %v: %d boxes, want %d", win, len(got), len(want))
		}
		if n := r.Counters().TilesDecoded - io0.TilesDecoded; n != int64(len(rec.offs)) {
			t.Fatalf("window %v: %d tile decodes of %d distinct tiles", win, n, len(rec.offs))
		}
	}
}

// TestWindowDecodesTileOnce: a window whose top lies inside a tile
// that a box crosses decodes the tile once. The box spans down across
// the window's top from the window's first tile row, which keeps it,
// clipped, instead of reading the tile again for the spanning boxes.
func TestWindowDecodesTileOnce(t *testing.T) {
	boxes := []frontend.Box{
		{Layer: tech.Metal, Rect: geom.Rect{XMin: 0, YMin: 0, XMax: 100, YMax: 1000}},
		{Layer: tech.Poly, Rect: geom.Rect{XMin: 20, YMin: 200, XMax: 60, YMax: 400}},
	}
	r := open(t, pack(t, boxes, nil, 1, 1))
	win := geom.Rect{XMin: 0, YMin: 100, XMax: 100, YMax: 500}
	got := drainIter(t, r.ReadWindow(win))
	want := []frontend.Box{
		{Layer: tech.Metal, Rect: geom.Rect{XMin: 0, YMin: 100, XMax: 100, YMax: 500}},
		{Layer: tech.Poly, Rect: geom.Rect{XMin: 20, YMin: 200, XMax: 60, YMax: 400}},
	}
	if !reflect.DeepEqual(canon(got), canon(want)) {
		t.Fatalf("window %v: got %+v, want %+v", win, got, want)
	}
	if n := r.Counters().TilesDecoded; n != 1 {
		t.Fatalf("window %v decoded its one tile %d times", win, n)
	}
}

func TestWindowReadTouchesOWindowTiles(t *testing.T) {
	boxes := genBoxes(5, 20000)
	raw := pack(t, boxes, nil, 32, 32)
	r := open(t, raw)
	total := r.NonEmptyTiles()
	io0 := r.Counters()
	win := geom.Rect{XMin: -500, YMin: -500, XMax: 500, YMax: 500}
	drainIter(t, r.ReadWindow(win))
	io1 := r.Counters()
	decoded := io1.TilesDecoded - io0.TilesDecoded
	if decoded*4 > total {
		t.Fatalf("small window decoded %d of %d tiles — not O(window)", decoded, total)
	}
	if int64(len(raw))/4 < io1.BytesRead-io0.BytesRead {
		t.Fatalf("small window read %d of %d bytes", io1.BytesRead-io0.BytesRead, len(raw))
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	boxes := genBoxes(7, 100)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, NewGrid(bboxOf(boxes), 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	last := boxes[len(boxes)-1]
	if err := w.Add(last); err != nil {
		t.Fatal(err)
	}
	first := boxes[0]
	if first.Rect.YMax <= last.Rect.YMax {
		t.Skip("generated boxes do not span rows")
	}
	if err := w.Add(first); err == nil {
		t.Fatalf("out-of-order Add accepted")
	}
}

func TestDegenerateOnCutDropped(t *testing.T) {
	// A zero-height box sitting exactly on a window edge belongs to
	// neither window under the clip contract (refPartition); the reader
	// must agree.
	boxes := []frontend.Box{
		{Layer: tech.Metal, Rect: geom.Rect{XMin: 0, YMin: 900, XMax: 100, YMax: 1000}},
		{Layer: tech.Metal, Rect: geom.Rect{XMin: 0, YMin: 500, XMax: 100, YMax: 500}}, // degenerate on cut
		{Layer: tech.Metal, Rect: geom.Rect{XMin: 0, YMin: 0, XMax: 100, YMax: 400}},
	}
	r := open(t, pack(t, boxes, nil, 2, 2))
	wins := cutWindows(r.BBox(), []int64{500})
	want := refPartition(boxes, wins)
	for k, win := range wins {
		got := drainIter(t, r.ReadWindow(win))
		if !reflect.DeepEqual(canon(got), canon(want[k])) {
			t.Fatalf("window %v: got %+v want %+v", win, got, want[k])
		}
	}
}

func TestGridEdges(t *testing.T) {
	// Single box, 1x1 grid, and a grid larger than the coordinate span.
	for _, dims := range [][2]int{{1, 1}, {64, 64}, {3, 5}} {
		boxes := []frontend.Box{{Layer: tech.Poly, Rect: geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}}}
		raw := pack(t, boxes, nil, dims[0], dims[1])
		r := open(t, raw)
		got := drainIter(t, r.ReadBand(WholeChip()))
		if !reflect.DeepEqual(got, boxes) {
			t.Fatalf("grid %v: got %+v", dims, got)
		}
	}
}
