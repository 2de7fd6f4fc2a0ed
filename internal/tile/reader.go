package tile

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/scan"
	"ace/internal/tech"
	"ace/internal/vfs"
)

// Reader serves whole-chip and windowed reads from a packed tile file.
// Only the footer index lives in memory (52 bytes per tile plus the
// labels); tile payloads are fetched with positioned reads as the
// iterators need them and decoded one tile at a time into reusable
// arenas. ReadAt is safe for concurrent use, so iterators from one
// Reader may run concurrently.
//
// Every structural read is verified: the header magic and version, the
// footer checksum, per-tile payload checksums, and index consistency
// (offsets inside the payload region, counts summing to the recorded
// box total). Damage surfaces as *CorruptError, never a panic.
type Reader struct {
	r      io.ReaderAt
	closer io.Closer
	size   int64

	grid   Grid
	nBoxes int64
	// entries is row-major, rows top-down: entries[r*Cols+c].
	entries []tileEntry
	labels  []frontend.Label

	bytesRead    atomic.Int64
	tilesDecoded atomic.Int64

	pool *Arena // iterator scratch pool; nil means per-iterator allocation
}

// Counters is a snapshot of a Reader's I/O effort: how many payload,
// footer and trailer bytes were fetched and how many tiles were
// decoded. Windowed queries prove their O(window) claim with these.
type Counters struct {
	BytesRead    int64
	TilesDecoded int64
}

// Open opens a tile file and parses its index. The returned Reader
// owns the file handle; release it with Close.
func Open(path string) (*Reader, error) {
	return OpenFS(vfs.OS, path)
}

// OpenFS is Open on an explicit filesystem — the seam fault-injection
// tests use to prove every read error surfaces as a typed error, never
// a panic or a silently wrong decode. A vfs.File is an io.ReaderAt, so
// the Reader's concurrent positioned reads work unchanged.
func OpenFS(fsys vfs.FS, path string) (*Reader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tile: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tile: %w", err)
	}
	r, err := NewReader(f, info.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader parses the index of a tile file presented as a random
// access byte region.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	r := &Reader{r: ra, size: size}
	if err := r.loadIndex(); err != nil {
		return nil, err
	}
	return r, nil
}

// Close releases the underlying file when the Reader owns one.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// Grid returns the file's tile grid.
func (r *Reader) Grid() Grid { return r.grid }

// BBox returns the grid bounding box recorded at pack time.
func (r *Reader) BBox() geom.Rect { return r.grid.BBox }

// NumBoxes returns the total box count across all tiles.
func (r *Reader) NumBoxes() int64 { return r.nBoxes }

// Labels returns the design's net-name annotations (shared slice; do
// not mutate).
func (r *Reader) Labels() []frontend.Label { return r.labels }

// Size returns the file size in bytes.
func (r *Reader) Size() int64 { return r.size }

// NonEmptyTiles returns the number of tiles holding at least one box —
// the denominator for "decoded k of n tiles" claims.
func (r *Reader) NonEmptyTiles() int64 {
	var n int64
	for i := range r.entries {
		if r.entries[i].count > 0 {
			n++
		}
	}
	return n
}

// Counters snapshots the I/O counters. They accumulate across every
// iterator served by this Reader, including concurrent ones.
func (r *Reader) Counters() Counters {
	return Counters{BytesRead: r.bytesRead.Load(), TilesDecoded: r.tilesDecoded.Load()}
}

// readAt fetches a byte range, counting it.
func (r *Reader) readAt(buf []byte, off int64) error {
	n, err := r.r.ReadAt(buf, off)
	r.bytesRead.Add(int64(n))
	if err != nil {
		return corruptf("file", "read %d bytes at %d: %v", len(buf), off, err)
	}
	return nil
}

// loadIndex verifies header and trailer and decodes the footer.
func (r *Reader) loadIndex() error {
	if r.size < headerSize+trailerSize {
		return corruptf("file", "size %d below minimum %d", r.size, headerSize+trailerSize)
	}
	var hdr [headerSize]byte
	if err := r.readAt(hdr[:], 0); err != nil {
		return err
	}
	if string(hdr[:4]) != string(magicHeader[:]) {
		return corruptf("header", "bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != Version {
		return corruptf("header", "version %d, want %d", v, Version)
	}
	var tr [trailerSize]byte
	if err := r.readAt(tr[:], r.size-trailerSize); err != nil {
		return err
	}
	if string(tr[24:28]) != string(magicEnd[:]) {
		return corruptf("trailer", "bad end magic %q", tr[24:28])
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:]))
	footerLen := int64(binary.LittleEndian.Uint64(tr[8:]))
	footerSum := binary.LittleEndian.Uint64(tr[16:])
	if footerOff < headerSize || footerLen < 0 || footerOff+footerLen != r.size-trailerSize {
		return corruptf("trailer", "footer range [%d,+%d) inconsistent with size %d",
			footerOff, footerLen, r.size)
	}
	footer := make([]byte, footerLen)
	if err := r.readAt(footer, footerOff); err != nil {
		return err
	}
	if got := checksum(footer); got != footerSum {
		return corruptf("footer", "checksum %#x, want %#x", got, footerSum)
	}
	return r.decodeFooter(footer, footerOff)
}

// decodeFooter parses the checksum-verified footer blob and
// cross-checks the index against the payload region.
func (r *Reader) decodeFooter(b []byte, footerOff int64) error {
	const fixed = 32 + 16 + 8 + 8
	if len(b) < fixed {
		return corruptf("footer", "short fixed section: %d bytes", len(b))
	}
	g := Grid{BBox: getRect(b[0:])}
	g.TileW = int64(binary.LittleEndian.Uint64(b[32:]))
	g.TileH = int64(binary.LittleEndian.Uint64(b[40:]))
	g.Cols = int(binary.LittleEndian.Uint32(b[48:]))
	g.Rows = int(binary.LittleEndian.Uint32(b[52:]))
	nBoxes := int64(binary.LittleEndian.Uint64(b[56:]))
	if g.Cols < 1 || g.Rows < 1 || g.TileW < 1 || g.TileH < 1 ||
		g.Cols > 1<<20 || g.Rows > 1<<20 || nBoxes < 0 || !g.plausibleRows() {
		return corruptf("footer", "implausible grid %dx%d tile %dx%d boxes %d",
			g.Cols, g.Rows, g.TileW, g.TileH, nBoxes)
	}
	nTiles := g.Rows * g.Cols
	need := fixed + nTiles*tileEntrySize + 4
	if len(b) < need {
		return corruptf("footer", "index needs %d bytes, footer has %d", need, len(b))
	}
	entries := make([]tileEntry, nTiles)
	var total int64
	p := b[fixed:]
	for i := range entries {
		e := &entries[i]
		e.off = int64(binary.LittleEndian.Uint64(p[0:]))
		e.count = binary.LittleEndian.Uint32(p[8:])
		e.sum = binary.LittleEndian.Uint64(p[12:])
		e.bbox = getRect(p[20:])
		p = p[tileEntrySize:]
		if e.count == 0 {
			continue
		}
		if e.off < headerSize || e.off+e.payloadLen() > footerOff {
			return corruptf("footer", "tile %d payload [%d,+%d) outside payload region [%d,%d)",
				i, e.off, e.payloadLen(), headerSize, footerOff)
		}
		total += int64(e.count)
	}
	if total != nBoxes {
		return corruptf("footer", "tile counts sum to %d, index records %d", total, nBoxes)
	}

	nLabels := int(binary.LittleEndian.Uint32(p[0:]))
	p = p[4:]
	labels := make([]frontend.Label, 0, nLabels)
	for i := 0; i < nLabels; i++ {
		if len(p) < 4 {
			return corruptf("footer", "label %d truncated", i)
		}
		nameLen := int(binary.LittleEndian.Uint32(p[0:]))
		p = p[4:]
		if nameLen < 0 || len(p) < nameLen+16+2 {
			return corruptf("footer", "label %d truncated", i)
		}
		name := string(p[:nameLen])
		p = p[nameLen:]
		l := frontend.Label{
			Name: name,
			At:   geom.Point{X: int64(binary.LittleEndian.Uint64(p[0:])), Y: int64(binary.LittleEndian.Uint64(p[8:]))},
		}
		l.Layer = tech.Layer(int8(p[16]))
		l.HasLayer = p[17] != 0
		p = p[18:]
		labels = append(labels, l)
	}

	r.grid = g
	r.nBoxes = nBoxes
	r.entries = entries
	r.labels = labels
	return nil
}

// decodeTile fetches, verifies and decodes one tile's payload,
// appending its boxes to dst. buf is the caller's reusable byte
// scratch, returned (possibly grown) for the next call.
//
// Besides the checksum and each record's layer and rect, it verifies
// the order the merge relies on: every top lies in the row's range
// (Grid.RowOf's rule) and none is above the top before it, so the
// appended boxes are one descending-top run.
func (r *Reader) decodeTile(row, col int, dst []frontend.Box, buf []byte) ([]frontend.Box, []byte, error) {
	e := &r.entries[row*r.grid.Cols+col]
	if e.count == 0 {
		return dst, buf, nil
	}
	need := int(e.payloadLen())
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	if err := r.readAt(buf, e.off); err != nil {
		return dst, buf, err
	}
	if got := checksum(buf); got != e.sum {
		return dst, buf, corruptf(fmt.Sprintf("tile[%d,%d]", row, col),
			"checksum %#x, want %#x", got, e.sum)
	}
	dst = slices.Grow(dst, int(e.count))
	lo, hi := r.grid.topRange(row)
	ceil := hi // no top may exceed the previous one
	for i := 0; i < int(e.count); i++ {
		p := buf[i*BoxRecordSize:]
		layer := tech.Layer(int8(p[0]))
		if layer < 0 || int(layer) >= tech.NumLayers {
			return dst, buf, corruptf(fmt.Sprintf("tile[%d,%d]", row, col),
				"box %d layer %d out of range", i, layer)
		}
		rect := getRect(p[1:])
		if rect.XMin > rect.XMax || rect.YMin > rect.YMax {
			return dst, buf, corruptf(fmt.Sprintf("tile[%d,%d]", row, col),
				"box %d inverted rect %v", i, rect)
		}
		if top := rect.YMax; top < lo || top > ceil {
			if top >= lo && top <= hi {
				return dst, buf, corruptf(fmt.Sprintf("tile[%d,%d]", row, col),
					"box %d top %d above box %d's top %d: records not in descending-top order", i, top, i-1, ceil)
			}
			return dst, buf, corruptf(fmt.Sprintf("tile[%d,%d]", row, col),
				"box %d top %d outside row %d's tops [%d, %d]", i, top, row, lo, hi)
		}
		ceil = rect.YMax
		dst = append(dst, frontend.Box{Layer: layer, Rect: rect})
	}
	r.tilesDecoded.Add(1)
	return dst, buf, nil
}

// Band names the y range ReadBand reads. Only the whole chip is left,
// so Band has one value, WholeChip(); part of a chip is read through
// ReadWindow.
type Band struct{}

// WholeChip is the band covering everything: the whole-chip read.
func WholeChip() Band { return Band{} }

// ReadBand returns an iterator over the whole chip's boxes in
// non-increasing top order, a scan.Source: ReadBand(WholeChip()) is
// the whole-chip read. The iterator decodes one tile row at a time
// into a reusable arena and merges the row's tiles by top; its working
// set is one row of boxes, not the chip.
//
// Iterators from one Reader may run concurrently.
func (r *Reader) ReadBand(Band) *Iter {
	return r.newIter(geom.Rect{}, false)
}

// ReadWindow returns an iterator over the boxes overlapping rect,
// clipped to it, in non-increasing top order, consulting only tiles
// whose index bbox can matter — O(window) tiles, not O(chip). Labels
// are not filtered here; use WindowLabels.
//
// The window's y range is the half-open interval (YMin, YMax]: a box
// top exactly on YMax belongs to it; a bottom exactly on YMin does
// not, and a zero-height box on YMax is dropped.
func (r *Reader) ReadWindow(rect geom.Rect) *Iter {
	return r.newIter(rect, true)
}

// WindowLabels returns the labels inside rect.
func (r *Reader) WindowLabels(rect geom.Rect) []frontend.Label {
	var out []frontend.Label
	for _, l := range r.labels {
		if rect.Contains(l.At) {
			out = append(out, l)
		}
	}
	return out
}

// Iter streams the whole chip's boxes, or a window's clipped boxes, in
// non-increasing top order, implementing scan.Source. Only the top
// order is a contract: boxes that share a top may come in any order,
// and the sweep sorts each stop's batch itself. Errors cannot travel
// through the Source interface, so a decode failure marks the iterator
// exhausted and parks the error for Err() — the same fake-exhaustion
// contract the streamed flatten sources use; callers must check Err
// after the sweep.
//
// An Iter has two halves: FillRow fetches, checksums, decodes and
// filters the next tile row into one of two row buffers, and the
// filled Row merges that row's tiles by top. NextTop and Next run the
// two in turn on one goroutine and one buffer. A caller may instead
// run them on two goroutines, merging one row buffer while the next
// row fills the other (extract's pipe does); see FillRow.
type Iter struct {
	r      *Reader
	rect   geom.Rect // the window; zero when !wind
	wind   bool
	err    error
	done   bool
	inited bool

	// Phase A: boxes from the tile rows above RowOf(rect.YMax) spanning
	// down across the window's top, clipped to top off there. They all
	// share the window's first stop, so they go out first, as a row of
	// their own.
	span []frontend.Box

	// Phase B: tile rows RowOf(rect.YMax) and below, one row per row
	// buffer: one filtered run per decoded tile, merged by top. The
	// first of them also holds the boxes of row RowOf(rect.YMax) that
	// span across the window's top.
	row    int // next tile row to load
	rowHi  int // last tile row whose native tops can qualify
	maxRow int // most native boxes in one of those rows: a row arena's size
	rows   [2]Row
	cur    *Row // the row NextTop and Next merge; nil between rows
	buf    []byte

	pool     *Arena // where the scratch returns
	released bool
}

// Row is one decoded tile row of an Iter: each tile's qualifying boxes
// as one descending-top run in the row's arena, merged by top through
// a heap of run cursors. (A window's spanning boxes from the rows above
// its first, all at its top, go out first as a row of one run.) It
// implements scan.Source over that row alone. Each of an Iter's rows
// holds tops no higher than the lowest of the row before (only the
// spanning row and the first share one, the window's top), so merging
// them one after the other continues the non-increasing-top order.
type Row struct {
	arena []frontend.Box // the boxes merged: store's, or the spanning boxes
	runs  runHeap
	store []frontend.Box // the row buffer's own arena
}

// Len returns the number of boxes the row held when it was filled.
func (rw *Row) Len() int { return len(rw.arena) }

// NextTop implements scan.Source.
func (rw *Row) NextTop() (int64, bool) {
	if len(rw.runs) == 0 {
		return 0, false
	}
	return rw.runs[0].top, true
}

// Next implements scan.Source. It is small enough to inline, so a
// caller wrapping it returns the box straight from the arena.
func (rw *Row) Next() (frontend.Box, bool) {
	if len(rw.runs) == 0 {
		return frontend.Box{}, false
	}
	return rw.arena[rw.runs.pop(rw.arena)], true
}

func (r *Reader) newIter(rect geom.Rect, windowed bool) *Iter {
	it := &Iter{r: r, rect: rect, wind: windowed, pool: r.pool}
	if it.pool != nil {
		s := it.pool.get()
		for k := range it.rows {
			it.rows[k].store, it.rows[k].runs = s.arenas[k], s.runs[k]
		}
		it.span, it.buf = s.span, s.buf
	}
	return it
}

// Release hands the iterator's scratch back to its Reader's Arena, if
// it has one; a failed iterator keeps (drops) its buffers. NextTop and
// Next release the iterator themselves once it is exhausted. A caller
// that drives FillRow and Row itself calls Release once neither half
// runs any more; the iterator must not be used after.
func (it *Iter) Release() {
	if it.pool == nil || it.released || it.err != nil {
		return
	}
	it.released = true
	var s iterScratch
	for k := range it.rows {
		s.arenas[k], s.runs[k] = it.rows[k].store, it.rows[k].runs
	}
	s.span, s.buf = it.span, it.buf
	it.pool.put(s)
	it.rows, it.span, it.buf, it.cur = [2]Row{}, nil, nil, nil
}

// Err returns the first decode error the iterator hit, if any. An
// iterator that returned ok=false may have ended for this reason
// rather than genuine exhaustion.
func (it *Iter) Err() error { return it.err }

func (it *Iter) fail(err error) {
	if it.err == nil {
		it.err = err
	}
	it.done = true
}

// init computes the tile-row range and, from the index, the room a row
// needs; sizes the payload buffer once for the largest tile and rw's
// arena for the largest row; and collects the spanning boxes of the
// rows above the first, decoding their tiles into rw's arena as
// scratch. False means a spanning tile failed.
func (it *Iter) init(rw *Row) bool {
	it.inited = true
	g := it.r.grid
	it.row, it.rowHi = 0, g.Rows-1
	if it.wind {
		// Native tops in (YMin, YMax] lie in rows RowOf(YMax) down to
		// RowOf(YMin+1).
		it.row, it.rowHi = g.RowOf(it.rect.YMax), g.RowOf(it.rect.YMin+1)
	}
	maxTile := 0
	for row := it.row; row <= it.rowHi; row++ {
		n := 0
		for c := 0; c < g.Cols; c++ {
			if e := &it.r.entries[row*g.Cols+c]; it.native(e) {
				n += int(e.count)
				maxTile = max(maxTile, int(e.count))
			}
		}
		it.maxRow = max(it.maxRow, n)
	}
	it.buf = slices.Grow(it.buf[:0], maxTile*BoxRecordSize)
	it.sizeStore(rw)
	it.span = it.span[:0]
	if !it.wind {
		return true
	}
	// Collect the spanning boxes (top above the window's top hi, bottom
	// below it) of rows 0..RowOf(hi)-1 and clip their tops to hi. Row
	// RowOf(hi) can hold tops above hi too, but it is the first row
	// phase B decodes, and filter keeps its spanning boxes there: each
	// tile is decoded once.
	hi := it.rect.YMax
	for row := 0; row < it.row; row++ {
		for c := 0; c < g.Cols; c++ {
			e := &it.r.entries[row*g.Cols+c]
			if e.count == 0 || e.bbox.YMax <= hi || e.bbox.YMin >= hi {
				continue
			}
			if e.bbox.XMin >= it.rect.XMax || e.bbox.XMax <= it.rect.XMin {
				continue
			}
			var err error
			rw.store, it.buf, err = it.r.decodeTile(row, c, rw.store[:0], it.buf)
			if err != nil {
				it.fail(err)
				return false
			}
			for _, b := range rw.store {
				if b.Rect.YMax > hi && b.Rect.YMin < hi {
					if cb, ok := it.clip(b); ok {
						it.span = append(it.span, cb)
					}
				}
			}
		}
	}
	return true
}

// sizeStore gives rw's arena room for the largest row the iterator
// reads: one allocation per row buffer, or none on pooled scratch that
// is large enough already.
func (it *Iter) sizeStore(rw *Row) {
	if cap(rw.store) < it.maxRow {
		rw.store = make([]frontend.Box, 0, it.maxRow)
	}
}

// clip clips a box within the window's y range to the window,
// reporting whether anything remains. The y test is the caller's; the
// x test happens here.
func (it *Iter) clip(b frontend.Box) (frontend.Box, bool) {
	if b.Rect.XMin >= it.rect.XMax || b.Rect.XMax <= it.rect.XMin {
		return b, false
	}
	b.Rect.YMax = min(b.Rect.YMax, it.rect.YMax)
	b.Rect.YMin = max(b.Rect.YMin, it.rect.YMin)
	b.Rect.XMin = max(b.Rect.XMin, it.rect.XMin)
	b.Rect.XMax = min(b.Rect.XMax, it.rect.XMax)
	return b, true
}

// FillRow is the iterator's first half: it decodes the next tile row
// that keeps any boxes into row buffer k (0 or 1), ready for Row(k) to
// merge, and reports whether there was one. False means the iterator
// is exhausted or has failed (see Err). A window's first fill holds the
// spanning boxes of the rows above its first instead, when there are
// any. Each row arena is sized once, on its first fill, to the largest
// row the iterator reads.
//
// The halves may run on two goroutines if they never hold one row
// buffer at once: one goroutine fills the rows in order, and hands
// each filled buffer to the other, which merges it and hands it back
// before it is refilled. FillRow itself starts no goroutine.
func (it *Iter) FillRow(k int) bool {
	if it.done {
		return false
	}
	rw := &it.rows[k]
	if !it.inited {
		if !it.init(rw) {
			return false
		}
		if len(it.span) > 0 {
			rw.arena, rw.runs = it.span, rw.runs[:0].add(it.span, 0)
			return true
		}
	}
	it.sizeStore(rw)
	if it.loadRow(rw) {
		return true
	}
	it.done = true
	return false
}

// Row returns row buffer k as FillRow(k) last filled it, to merge.
func (it *Iter) Row(k int) *Row { return &it.rows[k] }

// loadRow decodes the next tile row that keeps any boxes into rw's
// arena, one descending-top run per tile, and heaps the runs for the
// merge. Returns false when rows are exhausted or a tile fails.
func (it *Iter) loadRow(rw *Row) bool {
	g := it.r.grid
	arena, runs := rw.store[:0], rw.runs[:0]
	for len(runs) == 0 && it.row <= it.rowHi {
		row := it.row
		it.row++
		tiles := it.r.entries[row*g.Cols : (row+1)*g.Cols]
		for c := range tiles {
			if !it.native(&tiles[c]) {
				continue
			}
			start := len(arena)
			var err error
			arena, it.buf, err = it.r.decodeTile(row, c, arena, it.buf)
			if err != nil {
				it.fail(err)
				return false
			}
			if it.wind {
				arena = it.filter(arena, start)
			}
			runs = runs.add(arena, start)
		}
	}
	rw.arena, rw.store, rw.runs = arena, arena[:0], runs
	// Rows follow each other down in top range, so merging one row's
	// runs continues the global non-increasing-top order.
	runs.init()
	return len(runs) > 0
}

// filter keeps, in place, the boxes of arena[start:] that the window
// holds, clipped to it. Only the first row's boxes can have tops above
// the window's; clipping those to its top keeps the tile's leading
// boxes at the run's highest top, and clipping moves nothing else's
// top, so the kept boxes stay one descending-top run. The whole chip
// needs no filter: every box is kept and nothing clips.
func (it *Iter) filter(arena []frontend.Box, start int) []frontend.Box {
	kept := start
	for _, b := range arena[start:] {
		if b.Rect.YMax <= it.rect.YMin {
			continue
		}
		if b.Rect.YMin >= it.rect.YMax {
			// Above the window (a first-row box that does not reach
			// down across its top), or a degenerate zero-height box
			// sitting exactly on its top, which the window does not
			// hold.
			continue
		}
		if cb, ok := it.clip(b); ok {
			arena[kept] = cb
			kept++
		}
	}
	return arena[:kept]
}

// native reports whether tile e of a phase-B row can hold boxes the
// iterator keeps: a window's boxes need a top above its bottom, and
// the index bbox bounds the tile's tops by YMax; they also need the
// bbox to reach across the window's x range.
func (it *Iter) native(e *tileEntry) bool {
	if e.count == 0 {
		return false
	}
	return !it.wind || (e.bbox.YMax > it.rect.YMin &&
		e.bbox.XMin < it.rect.XMax && e.bbox.XMax > it.rect.XMin)
}

// NextTop implements scan.Source: it merges row buffer 0 and refills
// it when it runs dry.
func (it *Iter) NextTop() (int64, bool) {
	for {
		if it.cur != nil {
			if top, ok := it.cur.NextTop(); ok {
				return top, true
			}
			it.cur = nil
		}
		if !it.FillRow(0) {
			it.Release()
			return 0, false
		}
		it.cur = &it.rows[0]
	}
}

// Next implements scan.Source.
func (it *Iter) Next() (frontend.Box, bool) {
	if _, ok := it.NextTop(); !ok {
		return frontend.Box{}, false
	}
	return it.cur.Next()
}

// run is one tile's boxes in a row arena, arena[pos:end], in
// non-increasing top order; top and layer are arena[pos]'s, and col
// orders the runs of one row left to right.
type run struct {
	top      int64
	layer    tech.Layer
	col      int32
	pos, end int
}

// before is the merge order: higher top first, then lower layer, then
// the left tile. Only the top order is a contract; the tie-breaks
// reproduce the order the writer stored (scan.SortTopDown's, since a
// tile column holds a range of XMin), so each of the sweep's per-stop
// batches arrives already sorted by x, which its batch sort finishes
// in one pass.
func (a *run) before(b *run) bool {
	if a.top != b.top {
		return a.top > b.top
	}
	if a.layer != b.layer {
		return a.layer < b.layer
	}
	return a.col < b.col
}

// runHeap merges a tile row's runs: a heap on each run's next box in
// the before order.
type runHeap []run

// add appends arena[start:] as a run unless it is empty.
func (h runHeap) add(arena []frontend.Box, start int) runHeap {
	if start == len(arena) {
		return h
	}
	b := &arena[start]
	return append(h, run{top: b.Rect.YMax, layer: b.Layer, col: int32(len(h)), pos: start, end: len(arena)})
}

// init orders the runs into a heap.
func (h runHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts run i down to its place.
func (h runHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pop returns the arena index of the first remaining box in the
// before order, a box with the highest remaining top, and advances its
// run. The heap must be non-empty.
func (h *runHeap) pop(arena []frontend.Box) int {
	s := *h
	i := s[0].pos
	if s[0].pos++; s[0].pos < s[0].end {
		b := &arena[s[0].pos]
		s[0].top, s[0].layer = b.Rect.YMax, b.Layer
	} else {
		n := len(s) - 1
		s[0] = s[n]
		s = s[:n]
		*h = s
	}
	s.down(0)
	return i
}

var _ scan.Source = (*Iter)(nil)
