package scan_test

import (
	"bytes"
	"slices"
	"testing"

	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/scan"
	"ace/internal/tech"
	"ace/internal/tile"
)

// The seam stitcher's unit tests live in an external test package: the
// band sources come from tile.Reader.Sources over an in-memory pack, the
// clipping the tiled path really feeds ParallelSweepSources, and tile
// imports scan.

func box(l tech.Layer, x0, y0, x1, y1 int64) frontend.Box {
	return frontend.Box{Layer: l, Rect: geom.R(x0, y0, x1, y1)}
}

// packed writes boxes and labels into an in-memory tile file, as
// cifpack does, and opens it.
func packed(t *testing.T, boxes []frontend.Box, labels []frontend.Label) *tile.Reader {
	t.Helper()
	boxes = slices.Clone(boxes)
	scan.SortTopDown(boxes)
	bb := boxes[0].Rect
	for _, b := range boxes[1:] {
		bb = bb.Union(b.Rect)
	}
	var buf bytes.Buffer
	w, err := tile.NewWriter(&buf, tile.NewGrid(bb, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		w.AddLabel(l)
	}
	for _, b := range boxes {
		if err := w.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := tile.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// countingSource counts the boxes a band sweeper pulls from its source.
type countingSource struct {
	scan.Source
	n int
}

func (c *countingSource) Next() (frontend.Box, bool) {
	b, ok := c.Source.Next()
	if ok {
		c.n++
	}
	return b, ok
}

// sweepBoth sweeps the packed design serially and in the bands the
// given cuts define, failing unless every band swept geometry of its
// own — so the stitcher, not a serial fallback, produced par.
func sweepBoth(t *testing.T, r *tile.Reader, cuts []int64) (serial, par *scan.Result) {
	t.Helper()
	opt := scan.Options{Labels: r.Labels()}
	serial, err := scan.Sweep(r.ReadBand(tile.WholeChip()), opt)
	if err != nil {
		t.Fatal(err)
	}
	its := r.Sources(cuts)
	srcs := make([]scan.Source, len(its))
	counts := make([]*countingSource, len(its))
	for k, it := range its {
		counts[k] = &countingSource{Source: it}
		srcs[k] = counts[k]
	}
	par, err = scan.ParallelSweepSources(srcs, cuts, int(r.NumBoxes()), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(its) < 2 {
		t.Fatalf("cuts %v make %d band", cuts, len(its))
	}
	for k, it := range its {
		if err := it.Err(); err != nil {
			t.Fatalf("band %d: %v", k, err)
		}
		if counts[k].n == 0 {
			t.Fatalf("band %d of %d swept no boxes", k, len(its))
		}
	}
	return serial, par
}

// TestParallelSplitTransistor: a tall transistor whose channel crosses
// band cuts must come out as one device with the right terminals, area
// and size.
func TestParallelSplitTransistor(t *testing.T) {
	// Vertical poly stripe over a tall diff stripe: channel
	// [0,100]x[0,4000], diff continuing above and below. Both cuts fall
	// inside the channel.
	r := packed(t, []frontend.Box{
		box(tech.Diff, 0, -200, 100, 4200),
		box(tech.Poly, -50, 0, 150, 4000),
	}, nil)
	serial, par := sweepBoth(t, r, []int64{3000, 1000})
	for which, res := range map[string]*scan.Result{"serial": serial, "parallel": par} {
		if len(res.Netlist.Devices) != 1 {
			t.Fatalf("%s: devices = %d, want 1", which, len(res.Netlist.Devices))
		}
		d := res.Netlist.Devices[0]
		if d.Area != 100*4000 {
			t.Errorf("%s: area = %d, want %d", which, d.Area, 100*4000)
		}
		if d.Source == d.Drain {
			t.Errorf("%s: source == drain for a pass transistor", which)
		}
		if d.Width != 100 || d.Length != 4000 {
			t.Errorf("%s: W=%d L=%d, want W=100 L=4000", which, d.Width, d.Length)
		}
		if len(d.Terminals) != 2 {
			t.Errorf("%s: terminals = %+v", which, d.Terminals)
		}
	}
	if len(par.Netlist.Nets) != len(serial.Netlist.Nets) {
		t.Errorf("parallel %d nets vs serial %d", len(par.Netlist.Nets), len(serial.Netlist.Nets))
	}
}

// TestParallelSeamLabel: a label that lands exactly on a band cut must
// still bind, exactly once, to the net below/above it.
func TestParallelSeamLabel(t *testing.T) {
	// One tall metal bar, and a second bar whose top makes 2500 a
	// scanline stop; the cut and the label sit exactly there, so the
	// label can only bind through the seam faces.
	r := packed(t, []frontend.Box{
		box(tech.Metal, 0, 0, 100, 5000),
		box(tech.Metal, 300, 1000, 400, 2500),
	}, []frontend.Label{{Name: "MID", At: geom.Pt(50, 2500)}})
	serial, par := sweepBoth(t, r, []int64{2500})
	for which, res := range map[string]*scan.Result{"serial": serial, "parallel": par} {
		i, ok := res.Netlist.NetByName("MID")
		if !ok {
			t.Fatalf("%s: label MID lost (warnings: %v)", which, res.Warnings)
		}
		if got := res.Netlist.Nets[i].Names; len(got) != 1 {
			t.Errorf("%s: names = %v", which, got)
		}
		if res.Counters.LabelMisses != 0 {
			t.Errorf("%s: label misses = %d", which, res.Counters.LabelMisses)
		}
	}
}
