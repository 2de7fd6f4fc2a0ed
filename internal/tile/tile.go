// Package tile implements ACE's tiled, spatially indexed on-disk
// layout format: the out-of-core substrate that lets a chip far larger
// than memory extract with bounded RSS.
//
// The design follows the Cloud-Optimized-GeoTIFF pattern: fixed
// spatial tiles written sequentially, followed by an IFD-style footer
// index with per-tile offsets, box counts, actual bounding boxes and
// checksums, so a reader can serve windowed queries by decoding only
// the tiles a window touches. The file is written front to back in one
// pass (the packer streams boxes straight off the lazy front end), and
// read back with pread-style random access, so a window reads only the
// tile ranges it covers.
//
// Layout (all integers little-endian):
//
//	header   magic "ACTB" + format version                  (8 bytes)
//	tiles    per-tile box records, row-major, rows top-down
//	footer   grid geometry, per-tile index entries, labels
//	trailer  footer offset + length + CRC-32C checksum
//	         + end magic "ACTE"                            (28 bytes)
//
// A box record is layer (1 byte) + XMin, YMin, XMax, YMax (4×8 bytes)
// = 33 bytes. Within a tile, records are sorted in the canonical
// scan.SortTopDown order, so identical inputs produce byte-identical
// files.
//
// Spatial assignment: each box is stored exactly once, in the tile
// row whose y-range contains its top edge (Grid.RowOf, clamped to the
// grid) and the tile column containing its left edge. Rows are keyed
// by box tops, so the concatenation of rows top-to-bottom is globally
// sorted by descending top — which is exactly the order the scanline
// sweep consumes. The per-tile index bbox records the boxes' true
// extent (a tall box can reach far below its home row), so windowed
// reads stay exact while touching only the tiles whose contents can
// matter.
//
// The reader relies on that order: it never sorts. Each tile decodes
// into a descending-top run, and a tile row is the k-way merge of its
// runs by top. So the order is verified like the bytes are: a record
// whose top is above the record before it, or outside its row's range
// of tops, is a *CorruptError, even under a valid checksum.
//
// Verification reuses the internal/store discipline: the header magic
// and version gate the schema, the footer is checksummed as a unit,
// and every tile payload carries its own checksum in the index. Both
// checksums are CRC-32C (Castagnoli), stored in 8-byte fields whose
// upper half is zero; a non-zero upper half fails the check like any
// other mismatch. Version 1 files (FNV-64a checksums, same layout) are
// refused and must be re-packed. Truncation, bit flips and stale
// versions all surface as *tile.CorruptError — never a panic and never
// silently wrong boxes.
package tile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"ace/internal/geom"
)

// Format constants.
const (
	// Version is the on-disk schema version. Bump it when the layout
	// or the checksum changes; old files then fail with a version
	// CorruptError. Version 2 replaced version 1's FNV-64a checksums
	// with CRC-32C.
	Version = 2

	headerSize  = 8  // magic + version
	trailerSize = 28 // footer off + len + checksum + end magic

	// BoxRecordSize is the encoded size of one box record: layer byte
	// plus four int64 coordinates.
	BoxRecordSize = 1 + 4*8

	// tileEntrySize is one footer index entry: payload offset (8),
	// box count (4), payload checksum (8) and the true bbox (32).
	tileEntrySize = 8 + 4 + 8 + 32
)

var (
	magicHeader = [4]byte{'A', 'C', 'T', 'B'}
	magicEnd    = [4]byte{'A', 'C', 'T', 'E'}
)

// DefaultGrid is the default tile-grid resolution (columns and rows)
// used when the caller does not choose one. 64×64 keeps the footer
// index small (~213 KiB) while a read's working set — one row of
// tiles — is about 1/64th of the chip.
const DefaultGrid = 64

// CorruptError reports a structural fault in a tile file: truncation,
// bad magic, a stale version, a checksum mismatch or an inconsistent
// index. Region locates the damage (header, footer, trailer, or
// tile[r,c]).
type CorruptError struct {
	Region string
	Msg    string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("tile: %s: %s", e.Region, e.Msg)
}

func corruptf(region, format string, args ...any) error {
	return &CorruptError{Region: region, Msg: fmt.Sprintf(format, args...)}
}

// Grid is the fixed spatial tiling of a chip: the grid bounding box
// and the tile cell size. Rows count top-down (row 0 holds the
// highest box tops); columns count left to right.
type Grid struct {
	BBox  geom.Rect
	TileW int64
	TileH int64
	Cols  int
	Rows  int
}

// NewGrid tiles bbox into a cols×rows grid. Degenerate boxes widen to
// one unit so every box lands in a cell.
func NewGrid(bbox geom.Rect, cols, rows int) Grid {
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	w, h := bbox.W(), bbox.H()
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	tw := (w + int64(cols) - 1) / int64(cols)
	th := (h + int64(rows) - 1) / int64(rows)
	if tw < 1 {
		tw = 1
	}
	if th < 1 {
		th = 1
	}
	return Grid{BBox: bbox, TileW: tw, TileH: th, Cols: cols, Rows: rows}
}

// RowOf returns the tile row for a box whose top edge is yMax. Row r
// holds the tops in [BBox.YMax-(r+1)·TileH, BBox.YMax-r·TileH): a top
// exactly on a row boundary belongs to the row above. The range is
// clamped to the grid, so row 0 is unbounded above and the last row
// unbounded below, and overshooting geometry (manhattanisation rounds
// up to the grid) still has a home.
func (g Grid) RowOf(yMax int64) int {
	if yMax >= g.BBox.YMax {
		return 0
	}
	r := int((g.BBox.YMax - yMax) / g.TileH)
	if yMax == g.BBox.YMax-int64(r)*g.TileH {
		r--
	}
	if r < 0 {
		r = 0
	}
	if r >= g.Rows {
		r = g.Rows - 1
	}
	return r
}

// ColOf returns the tile column for a box whose left edge is xMin,
// clamped to the grid.
func (g Grid) ColOf(xMin int64) int {
	if xMin <= g.BBox.XMin {
		return 0
	}
	c := int((xMin - g.BBox.XMin) / g.TileW)
	if c >= g.Cols {
		c = g.Cols - 1
	}
	return c
}

// topRange returns the closed range [lo, hi] of the tops RowOf maps to
// row r. It needs BBox.YMax - Rows·TileH to fit an int64, which
// decodeFooter checks (plausibleRows); the arithmetic runs in uint64 so
// that an offset past MaxInt64 still lands on the exact bound.
func (g Grid) topRange(r int) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	edge := func(k int) int64 { return int64(uint64(g.BBox.YMax) - uint64(k)*uint64(g.TileH)) }
	if r > 0 {
		hi = edge(r) - 1
	}
	if r < g.Rows-1 {
		lo = edge(r + 1)
	}
	return lo, hi
}

// plausibleRows reports whether every row edge BBox.YMax - k·TileH,
// k ≤ Rows, is an int64, so topRange is exact.
func (g Grid) plausibleRows() bool {
	room := uint64(g.BBox.YMax) + 1<<63 // BBox.YMax - MinInt64, exact in uint64
	return uint64(g.TileH) <= room/uint64(g.Rows)
}

// tileEntry is one footer index record.
type tileEntry struct {
	off   int64  // payload offset from file start; 0 when count == 0
	count uint32 // boxes in the tile
	sum   uint64 // CRC-32C over the payload bytes; upper half zero
	bbox  geom.Rect
}

func (e *tileEntry) payloadLen() int64 { return int64(e.count) * BoxRecordSize }

// checksum is the format's CRC-32C of b, widened to its 8-byte field.
// It runs in hardware where the CPU has a CRC instruction (SSE4.2 on
// amd64), about 25 times the speed of version 1's byte-serial FNV-64a.
// MakeTable builds the Castagnoli table on its first call and returns
// the same one after, so the package has no initialiser.
func checksum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// putRect / getRect encode a rectangle as 4 little-endian int64s.
func putRect(b []byte, r geom.Rect) {
	binary.LittleEndian.PutUint64(b[0:], uint64(r.XMin))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.YMin))
	binary.LittleEndian.PutUint64(b[16:], uint64(r.XMax))
	binary.LittleEndian.PutUint64(b[24:], uint64(r.YMax))
}

func getRect(b []byte) geom.Rect {
	return geom.Rect{
		XMin: int64(binary.LittleEndian.Uint64(b[0:])),
		YMin: int64(binary.LittleEndian.Uint64(b[8:])),
		XMax: int64(binary.LittleEndian.Uint64(b[16:])),
		YMax: int64(binary.LittleEndian.Uint64(b[24:])),
	}
}
