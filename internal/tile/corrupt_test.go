package tile

import (
	"bytes"
	"errors"
	"testing"

	"ace/internal/frontend"
	"ace/internal/geom"
)

// fullRead opens raw and exercises every read surface: the index parse,
// a whole-chip drain and a window read whose top lies inside a tile
// row, so it collects boxes spanning down across its top from the rows
// above. It returns the first error encountered. Recovered panics fail
// the test: damage must surface as typed errors, never a crash.
func fullRead(t *testing.T, raw []byte) (err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("panic on corrupt input: %v", p)
		}
	}()
	r, err := NewReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return err
	}
	g := r.Grid()
	bb := g.BBox
	win := geom.Rect{XMin: bb.XMin, YMin: bb.YMin, XMax: bb.XMax, YMax: bb.YMax - g.TileH - g.TileH/2}
	for _, it := range []*Iter{r.ReadWindow(win), r.ReadBand(WholeChip())} {
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
	return nil
}

// TestCorruptionSweep flips a bit in every byte of a packed file and
// asserts the damage is always detected as a *CorruptError — the
// format's checksums and cross-checks leave no unprotected region
// (header, tile payloads, footer index, labels, trailer).
func TestCorruptionSweep(t *testing.T) {
	boxes := genBoxes(42, 300)
	labels := []frontend.Label{{Name: "clk", At: bboxOf(boxes).Center()}}
	raw := pack(t, boxes, labels, 4, 4)
	if err := fullRead(t, raw); err != nil {
		t.Fatalf("pristine file: %v", err)
	}
	for i := range raw {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), raw...)
			mut[i] ^= bit
			err := fullRead(t, mut)
			if err == nil {
				t.Fatalf("flip of bit %#x at byte %d/%d undetected", bit, i, len(raw))
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("flip at byte %d: error %v is not a *CorruptError", i, err)
			}
		}
	}
}

// TestTruncationSweep cuts the file at every length and asserts a
// typed error, never a panic and never silent partial output.
func TestTruncationSweep(t *testing.T) {
	boxes := genBoxes(43, 120)
	raw := pack(t, boxes, nil, 3, 3)
	for n := 0; n < len(raw); n++ {
		err := fullRead(t, raw[:n])
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes undetected", n, len(raw))
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation to %d: error %v is not a *CorruptError", n, err)
		}
	}
}

// TestExtensionSweep appends garbage after the trailer; the reader
// keys its trailer off the file end, so trailing junk must be caught.
func TestExtensionSweep(t *testing.T) {
	boxes := genBoxes(44, 60)
	raw := pack(t, boxes, nil, 2, 2)
	for _, extra := range []int{1, 7, trailerSize, 4096} {
		mut := append(append([]byte(nil), raw...), bytes.Repeat([]byte{0xAB}, extra)...)
		if err := fullRead(t, mut); err == nil {
			t.Fatalf("%d appended bytes undetected", extra)
		}
	}
}

// TestEmptyAndTinyInputs feeds pathological sizes straight to the
// reader.
func TestEmptyAndTinyInputs(t *testing.T) {
	for _, raw := range [][]byte{nil, {0}, []byte("ACTB"), bytes.Repeat([]byte{0}, headerSize+trailerSize)} {
		if err := fullRead(t, raw); err == nil {
			t.Fatalf("%d-byte input accepted", len(raw))
		}
	}
}
