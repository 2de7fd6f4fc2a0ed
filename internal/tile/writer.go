package tile

import (
	"encoding/binary"
	"fmt"
	"io"

	"ace/internal/frontend"
	"ace/internal/scan"
	"ace/internal/tech"
)

// Writer packs a descending-top box stream into the tile format in a
// single forward pass — no seeking, so it composes with any io.Writer
// (the packer puts a bufio.Writer over the output file). Because every
// box is stored in the row its top edge falls in, and the input stream
// is sorted by descending top, the writer only ever buffers the row
// currently being filled: peak memory is one tile row, not the chip.
type Writer struct {
	w   io.Writer
	g   Grid
	off int64 // bytes emitted so far == next payload offset
	err error

	curRow  int
	buckets [][]frontend.Box // per-column pending boxes of curRow
	entries []tileEntry      // filled row by row as rows flush
	nBoxes  int64
	labels  []frontend.Label

	buf []byte // reusable payload encode buffer
}

// NewWriter starts a tile file on w with the given grid, writing the
// header immediately.
func NewWriter(w io.Writer, g Grid) (*Writer, error) {
	if g.Cols < 1 || g.Rows < 1 || g.TileW < 1 || g.TileH < 1 {
		return nil, fmt.Errorf("tile: invalid grid %+v", g)
	}
	tw := &Writer{
		w:       w,
		g:       g,
		buckets: make([][]frontend.Box, g.Cols),
		entries: make([]tileEntry, 0, g.Rows*g.Cols),
	}
	var hdr [headerSize]byte
	copy(hdr[:4], magicHeader[:])
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	if err := tw.write(hdr[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

func (tw *Writer) write(b []byte) error {
	if tw.err != nil {
		return tw.err
	}
	n, err := tw.w.Write(b)
	tw.off += int64(n)
	if err != nil {
		tw.err = fmt.Errorf("tile: write: %w", err)
	}
	return tw.err
}

// Add appends one box. Boxes must arrive in non-increasing top order
// (the frontend stream's natural order); a box whose home row was
// already flushed is an ordering bug in the caller and is rejected.
func (tw *Writer) Add(b frontend.Box) error {
	if tw.err != nil {
		return tw.err
	}
	if b.Layer < 0 || int(b.Layer) >= tech.NumLayers {
		tw.err = fmt.Errorf("tile: box layer %d out of range", b.Layer)
		return tw.err
	}
	r := tw.g.RowOf(b.Rect.YMax)
	if r < tw.curRow {
		tw.err = fmt.Errorf("tile: box top %d out of order (row %d already flushed, at row %d)",
			b.Rect.YMax, r, tw.curRow)
		return tw.err
	}
	for tw.curRow < r {
		if err := tw.flushRow(); err != nil {
			return err
		}
	}
	c := tw.g.ColOf(b.Rect.XMin)
	tw.buckets[c] = append(tw.buckets[c], b)
	tw.nBoxes++
	return nil
}

// AddLabel records a net-name annotation; labels live in the footer
// and are returned whole by the reader (there are few of them).
func (tw *Writer) AddLabel(l frontend.Label) {
	tw.labels = append(tw.labels, l)
}

// flushRow encodes and writes every tile of the current row, appends
// their index entries, and advances to the next row.
func (tw *Writer) flushRow() error {
	for c := 0; c < tw.g.Cols; c++ {
		boxes := tw.buckets[c]
		if len(boxes) == 0 {
			tw.entries = append(tw.entries, tileEntry{})
			continue
		}
		// Canonical within-tile order makes the file a pure function of
		// the box multiset: identical chips pack to identical bytes.
		scan.SortTopDown(boxes)
		need := len(boxes) * BoxRecordSize
		if cap(tw.buf) < need {
			tw.buf = make([]byte, need)
		}
		buf := tw.buf[:need]
		bbox := boxes[0].Rect
		for i, b := range boxes {
			p := buf[i*BoxRecordSize:]
			p[0] = byte(b.Layer)
			putRect(p[1:], b.Rect)
			if b.Rect.XMin < bbox.XMin {
				bbox.XMin = b.Rect.XMin
			}
			if b.Rect.YMin < bbox.YMin {
				bbox.YMin = b.Rect.YMin
			}
			if b.Rect.XMax > bbox.XMax {
				bbox.XMax = b.Rect.XMax
			}
			if b.Rect.YMax > bbox.YMax {
				bbox.YMax = b.Rect.YMax
			}
		}
		e := tileEntry{
			off:   tw.off,
			count: uint32(len(boxes)),
			sum:   checksum(buf),
			bbox:  bbox,
		}
		if err := tw.write(buf); err != nil {
			return err
		}
		tw.entries = append(tw.entries, e)
		tw.buckets[c] = boxes[:0]
	}
	tw.curRow++
	return nil
}

// Close flushes the remaining rows and writes the footer and trailer.
// It does not close the underlying writer.
func (tw *Writer) Close() error {
	if tw.err != nil {
		return tw.err
	}
	for tw.curRow < tw.g.Rows {
		if err := tw.flushRow(); err != nil {
			return err
		}
	}
	footer := tw.encodeFooter()
	footerOff := tw.off
	if err := tw.write(footer); err != nil {
		return err
	}
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:], uint64(footerOff))
	binary.LittleEndian.PutUint64(tr[8:], uint64(len(footer)))
	binary.LittleEndian.PutUint64(tr[16:], checksum(footer))
	copy(tr[24:], magicEnd[:])
	return tw.write(tr[:])
}

// encodeFooter assembles the footer blob: grid geometry, the per-tile
// index, and the label table. One trailer checksum covers it all.
func (tw *Writer) encodeFooter() []byte {
	n := 32 + 16 + 8 + 8 + len(tw.entries)*tileEntrySize + 4
	for _, l := range tw.labels {
		n += 4 + len(l.Name) + 16 + 2
	}
	out := make([]byte, 0, n)
	var scratch [32]byte

	putRect(scratch[:32], tw.g.BBox)
	out = append(out, scratch[:32]...)
	binary.LittleEndian.PutUint64(scratch[0:], uint64(tw.g.TileW))
	binary.LittleEndian.PutUint64(scratch[8:], uint64(tw.g.TileH))
	out = append(out, scratch[:16]...)
	binary.LittleEndian.PutUint32(scratch[0:], uint32(tw.g.Cols))
	binary.LittleEndian.PutUint32(scratch[4:], uint32(tw.g.Rows))
	out = append(out, scratch[:8]...)
	binary.LittleEndian.PutUint64(scratch[0:], uint64(tw.nBoxes))
	out = append(out, scratch[:8]...)

	for _, e := range tw.entries {
		binary.LittleEndian.PutUint64(scratch[0:], uint64(e.off))
		binary.LittleEndian.PutUint32(scratch[8:], e.count)
		binary.LittleEndian.PutUint64(scratch[12:], e.sum)
		out = append(out, scratch[:20]...)
		putRect(scratch[:32], e.bbox)
		out = append(out, scratch[:32]...)
	}

	binary.LittleEndian.PutUint32(scratch[0:], uint32(len(tw.labels)))
	out = append(out, scratch[:4]...)
	for _, l := range tw.labels {
		binary.LittleEndian.PutUint32(scratch[0:], uint32(len(l.Name)))
		out = append(out, scratch[:4]...)
		out = append(out, l.Name...)
		binary.LittleEndian.PutUint64(scratch[0:], uint64(l.At.X))
		binary.LittleEndian.PutUint64(scratch[8:], uint64(l.At.Y))
		out = append(out, scratch[:16]...)
		hasLayer := byte(0)
		if l.HasLayer {
			hasLayer = 1
		}
		out = append(out, byte(l.Layer), hasLayer)
	}
	return out
}
