package extract

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/tile"
)

// The parts of the .actb layout (internal/tile/tile.go) that the
// damage tests below rewrite: the trailer's footer offset, length and
// checksum; the footer's fixed section; and per tile an index entry of
// payload offset, box count, payload checksum and bbox.
const (
	trailerBytes    = 28
	footerFixed     = 64
	indexEntryBytes = 52
)

// packedTile locates one tile of a packed file: its payload and its
// index entry, both as byte offsets into the file.
type packedTile struct {
	row, col int
	payload  int64
	count    int
	entry    int64
}

// packedTiles lists the non-empty tiles of raw, row-major.
func packedTiles(raw []byte, g tile.Grid) []packedTile {
	footer := int64(binary.LittleEndian.Uint64(raw[len(raw)-trailerBytes:]))
	var out []packedTile
	for i := 0; i < g.Rows*g.Cols; i++ {
		e := footer + footerFixed + int64(i)*indexEntryBytes
		if n := int(binary.LittleEndian.Uint32(raw[e+8:])); n > 0 {
			off := int64(binary.LittleEndian.Uint64(raw[e:]))
			out = append(out, packedTile{row: i / g.Cols, col: i % g.Cols, payload: off, count: n, entry: e})
		}
	}
	return out
}

// record returns box k of pt's payload as a byte slice of raw.
func (pt packedTile) record(raw []byte, k int) []byte {
	at := pt.payload + int64(k*tile.BoxRecordSize)
	return raw[at : at+tile.BoxRecordSize]
}

// recordTop reads the top edge (YMax) of a box record.
func recordTop(rec []byte) int64 { return int64(binary.LittleEndian.Uint64(rec[1+24:])) }

// rechecksum recomputes pt's payload checksum and then the footer's,
// both CRC-32C in an 8-byte field, so only the reader's structural
// checks can catch the damage.
func rechecksum(raw []byte, pt packedTile) {
	sum := func(b []byte) uint64 {
		return uint64(crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
	}
	payload := raw[pt.payload : pt.payload+int64(pt.count*tile.BoxRecordSize)]
	binary.LittleEndian.PutUint64(raw[pt.entry+12:], sum(payload))
	tr := raw[len(raw)-trailerBytes:]
	footer := int64(binary.LittleEndian.Uint64(tr[0:]))
	n := int64(binary.LittleEndian.Uint64(tr[8:]))
	binary.LittleEndian.PutUint64(tr[16:], sum(raw[footer:footer+n]))
}

// cellOf is the grid cell of pt's tile: a window that reads it.
func cellOf(g tile.Grid, pt packedTile) geom.Rect {
	x := g.BBox.XMin + int64(pt.col)*g.TileW
	y := g.BBox.YMax - int64(pt.row)*g.TileH
	return geom.Rect{XMin: x, YMin: y - g.TileH, XMax: x + g.TileW, YMax: y}
}

// requireCorrupt opens raw and requires a *tile.CorruptError from a
// whole-chip ReadBand, from a ReadWindow over win, and from Tiles.
func requireCorrupt(t *testing.T, raw []byte, win geom.Rect) {
	t.Helper()
	r, err := tile.NewReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("the damage is in a tile, but opening failed: %v", err)
	}
	check := func(what string, err error) {
		t.Helper()
		var ce *tile.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: got %v (%T), want a *tile.CorruptError", what, err, err)
		}
	}
	drain := func(it *tile.Iter) error {
		for {
			if _, ok := it.Next(); !ok {
				return it.Err()
			}
		}
	}
	check("ReadBand", drain(r.ReadBand(tile.WholeChip())))
	check("ReadWindow", drain(r.ReadWindow(win)))
	res, err := Tiles(r, Options{})
	if res != nil {
		t.Fatalf("Tiles: a result alongside the damage")
	}
	check("Tiles", err)
}

// TestTileRecordsOutOfOrder: the reader merges a row's tiles instead
// of sorting them, so it trusts each tile's record order — and checks
// it. Two records of one tile swapped, under recomputed checksums, must
// fail every read path with a CorruptError.
func TestTileRecordsOutOfOrder(t *testing.T) {
	raw := packRaw(t, faultDesign(), 4, 4)
	g := packFile(t, faultDesign(), 4, 4).Grid()
	for _, pt := range packedTiles(raw, g) {
		first, last := pt.record(raw, 0), pt.record(raw, pt.count-1)
		if recordTop(first) == recordTop(last) {
			continue
		}
		var tmp [tile.BoxRecordSize]byte
		copy(tmp[:], first)
		copy(first, last)
		copy(last, tmp[:])
		rechecksum(raw, pt)
		requireCorrupt(t, raw, cellOf(g, pt))
		return
	}
	t.Fatal("no tile holds two distinct tops")
}

// TestTileTopAboveRow: a record whose top lies above its tile row — in
// the row above, where the writer would have put it — breaks the
// rows' disjoint top ranges the merge relies on. Lifted in the first
// record of its tile, which keeps the tile itself in order, and with
// the index bbox and checksums updated to match, it must still fail
// every read path with a CorruptError.
func TestTileTopAboveRow(t *testing.T) {
	raw := packRaw(t, faultDesign(), 4, 4)
	g := packFile(t, faultDesign(), 4, 4).Grid()
	for _, pt := range packedTiles(raw, g) {
		if pt.row == 0 {
			continue // unbounded above
		}
		// The row's top edge belongs to the row above (Grid.RowOf).
		lifted := g.BBox.YMax - int64(pt.row)*g.TileH
		if g.RowOf(lifted) != pt.row-1 {
			t.Fatalf("top %d: row %d, want %d", lifted, g.RowOf(lifted), pt.row-1)
		}
		binary.LittleEndian.PutUint64(pt.record(raw, 0)[1+24:], uint64(lifted))
		bboxTop := raw[pt.entry+20+24:]
		if int64(binary.LittleEndian.Uint64(bboxTop)) < lifted {
			binary.LittleEndian.PutUint64(bboxTop, uint64(lifted))
		}
		rechecksum(raw, pt)
		requireCorrupt(t, raw, cellOf(g, pt))
		return
	}
	t.Fatal("no tile below row 0")
}

// TestTiledCorruptLastRow: a damaged tile in the last row fails the
// producer only after the sweep has taken nearly every box, so the
// sweep finishes, and succeeds, on the truncated stream. The tile's
// CorruptError must still be what Tiles and TileWindow return, on a
// nil Engine and on a pooled one, and the producer must be joined.
func TestTiledCorruptLastRow(t *testing.T) {
	f := faultDesign()
	raw := packRaw(t, f, 4, 4)
	g := packFile(t, f, 4, 4).Grid()
	tiles := packedTiles(raw, g)
	last := tiles[len(tiles)-1]
	if last.row != g.Rows-1 {
		t.Fatalf("last non-empty tile is in row %d of %d", last.row, g.Rows)
	}
	raw[last.payload] ^= 0x01 // a layer byte: the payload checksum fails
	r, err := tile.NewReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	win := geom.Rect{XMin: g.BBox.XMin, YMin: g.BBox.YMin, XMax: g.BBox.XMax, YMax: g.BBox.YMin + g.TileH}
	eng := NewEngine()
	base := runtime.NumGoroutine()
	for _, e := range []*Engine{unpooled, eng} {
		for _, run := range []func() (*Result, error){
			func() (*Result, error) { return e.Tiles(nil, r, Options{}) },
			func() (*Result, error) { return e.TileWindow(nil, r, win, Options{}) },
		} {
			res, err := run()
			var ce *tile.CorruptError
			if res != nil || !errors.As(err, &ce) {
				t.Fatalf("pooled=%v: got %v, %v; want only a *tile.CorruptError", e != nil, res, err)
			}
		}
	}
	if n, ok := guard.WaitGoroutines(base, 5*time.Second); !ok {
		t.Fatalf("goroutines leaked: %d running, base was %d", n, base)
	}
}
