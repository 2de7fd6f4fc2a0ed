package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"ace"
	"ace/internal/extract"
	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/scan"
	"ace/internal/tile"
)

// tileRunner drives tiles-window: a streamed chip packed by the real
// cifpack during set-up, then passes of one whole-chip extract.Tiles
// plus seeded extract.TileWindow queries, in a child whose Go memory
// limit is 64 MiB.
type tileRunner struct {
	packed string
	rd     *tile.Reader
	chip   design
	oracle string
	wins   []geom.Rect
	ref    []string // window output hashes from pass 0
	out    bytes.Buffer

	rates  []sample // boxes/s of each untraced timed whole-chip job
	winLat []sample // ms, untraced timed window queries
	gaps   []float64
	last   time.Time

	// Counts from traced operations.
	codec
	stops, maxActive int
	queries          int
	tiles, tileBytes int64
}

func (r *tileRunner) setup(c *childConfig, m *manifest) error {
	r.chip, r.oracle = m.Designs[0], m.Oracle
	r.packed = filepath.Join(c.dir, fmt.Sprintf("chip-%d.actb", os.Getpid()))
	pack := exec.Command(filepath.Join(c.bin, "cifpack"),
		"-grid", strconv.Itoa(c.preset().tileGrid), "-o", r.packed, filepath.Join(c.dir, m.Blob))
	pack.Stdout, pack.Stderr = os.Stderr, os.Stderr
	if err := pack.Run(); err != nil {
		return fmt.Errorf("cifpack: %w", err)
	}
	rd, err := tile.Open(r.packed)
	if err != nil {
		return err
	}
	r.rd = rd
	return nil
}

func (r *tileRunner) close() {
	if r.rd != nil {
		r.rd.Close()
	}
	if r.packed != "" {
		os.Remove(r.packed)
	}
}

// windows draws the query rectangles: perShape of every w×h tile shape
// with w and h in 1..4, at seeded positions inside the chip. Fixing the
// shapes keeps the size mix, and so the latency percentiles, the same
// across seeds.
func windows(seed int64, g tile.Grid, perShape int) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	var out []geom.Rect
	for w := int64(1); w <= 4; w++ {
		for h := int64(1); h <= 4; h++ {
			for k := 0; k < perShape; k++ {
				W, H := w*g.TileW, h*g.TileH
				x := g.BBox.XMin + rng.Int63n(max(1, g.BBox.W()-W))
				y := g.BBox.YMin + rng.Int63n(max(1, g.BBox.H()-H))
				out = append(out, geom.R(x, y, x+W, y+H))
			}
		}
	}
	return out
}

func (r *tileRunner) run(c *childConfig, m *manifest, tr *tracer, rep *report) {
	g := r.rd.Grid()
	r.wins = windows(c.seed, g, c.preset().windowsPerShape)
	r.ref = make([]string, len(r.wins))
	n := 1 + len(r.wins) // the whole chip is operation 0
	factors, cal := passLoop(c, rep, func(pass int, traced bool) {
		r.last = time.Time{}
		for _, i := range passOrder(c.seed, pass, n) {
			r.op(pass, i, traced, tr, rep)
		}
	})
	rep.Digest = digest(r.wins, passOrder(c.seed, 0, n), passOrder(c.seed, 1, n), r.oracle, r.ref)

	v := rep.Values
	if !c.trace {
		e2e := func(f []float64) map[string]float64 {
			lat := correct(r.winLat, f, false)
			return map[string]float64{
				"boxes_per_s": median(correct(r.rates, f, true)),
				"p50_ms":      median(lat),
				"tail_ms":     percentile(lat, 95),
			}
		}
		cal.log(e2e(nil))
		maps.Copy(v, e2e(factors))
		return
	}
	ls := tr.sums("chip", "window")
	codecValues(v, ls, 0, r.outBytes)
	v["scan.stops_per_job"] = ratio(float64(r.stops), float64(ls.ops))
	v["scan.max_active"] = float64(r.maxActive)
	v["tile.read_pct"] = ls.selfPct("tile")
	v["tile.tiles_per_query"] = ratio(float64(r.tiles), float64(r.queries))
	v["tile.bytes_per_query"] = ratio(float64(r.tileBytes), float64(r.queries))
	v["tile.decode_ratio"] = ratio(v["tile.tiles_per_query"], float64(g.Cols*g.Rows))
	v["gen.late_p99_ms"] = percentile(r.gaps, 99)
}

// op runs operation i: the whole chip (0) or window i-1.
func (r *tileRunner) op(pass, i int, traced bool, tr *tracer, rep *report) {
	rep.Attempted++
	start := time.Now()
	if pass > 0 && !r.last.IsZero() {
		r.gaps = append(r.gaps, ms(start.Sub(r.last)))
	}
	var out []byte
	var err error
	switch {
	case i == 0 && traced:
		out, err = r.tracedChip(tr)
	case i == 0:
		out, err = r.untraced(extract.Tiles(r.rd, extract.Options{}))
	case traced:
		out, err = r.tracedWindow(tr, r.wins[i-1])
	default:
		out, err = r.untraced(extract.TileWindow(context.Background(), r.rd, r.wins[i-1], extract.Options{}))
	}
	d := time.Since(start)
	r.last = start.Add(d)
	what := "whole chip"
	if i > 0 {
		what = fmt.Sprintf("window %v", r.wins[i-1])
	}
	if err != nil {
		rep.fail("%s: %v", what, err)
		return
	}
	if msg := r.check(pass, i, out); msg != "" {
		rep.fail("%s pass %d: %s", what, pass, msg)
		return
	}
	if pass == 0 || traced {
		return
	}
	if i == 0 {
		r.rates = append(r.rates, sample{pass, float64(r.chip.Boxes) / d.Seconds()})
	} else {
		r.winLat = append(r.winLat, sample{pass, ms(d)})
	}
}

// check holds the whole chip to the generator's device count and the
// in-RAM extractor's bytes, and each window to its pass-0 bytes.
func (r *tileRunner) check(pass, i int, out []byte) string {
	h := hashBytes(out)
	if i == 0 {
		if msg := checkCounts(out, r.chip); msg != "" {
			return msg
		}
		if h != r.oracle {
			return "bytes differ from ace.Extract of the same CIF"
		}
		return ""
	}
	if pass == 0 {
		r.ref[i-1] = h
	} else if h != r.ref[i-1] {
		return "output differs from the first pass"
	}
	return ""
}

func (r *tileRunner) untraced(res *extract.Result, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	r.out.Reset()
	err = ace.WriteWirelist(&r.out, res.Netlist, ace.WirelistOptions{})
	return r.out.Bytes(), err
}

// tracedChip composes extract.Tiles's serial path: the whole-chip band
// iterator feeding scan.Sweep, with the time inside the iterator
// recorded as the tile layer's.
func (r *tileRunner) tracedChip(tr *tracer) ([]byte, error) {
	root := tr.root("chip")
	defer tr.end(root)
	return r.sweep(tr, root, r.rd.ReadBand(tile.WholeChip()), r.rd.Labels())
}

// tracedWindow composes extract.TileWindow.
func (r *tileRunner) tracedWindow(tr *tracer, rect geom.Rect) ([]byte, error) {
	root := tr.root("window")
	defer tr.end(root)
	c0 := r.rd.Counters()
	s := tr.begin(root, "tile.labels")
	labels := r.rd.WindowLabels(rect)
	tr.end(s)
	out, err := r.sweep(tr, root, r.rd.ReadWindow(rect), labels)
	c1 := r.rd.Counters()
	r.queries++
	r.tiles += c1.TilesDecoded - c0.TilesDecoded
	r.tileBytes += c1.BytesRead - c0.BytesRead
	return out, err
}

func (r *tileRunner) sweep(tr *tracer, root int, it *tile.Iter, labels []frontend.Label) ([]byte, error) {
	src := &timedSource{inner: it}
	s := tr.begin(root, "scan.sweep")
	sres, err := scan.Sweep(src, scan.Options{Labels: labels})
	tr.end(s)
	tr.add(s, "tile.read", src.spent, false)
	// A damaged tile ends its iterator early; its error is the cause.
	if ierr := it.Err(); ierr != nil {
		return nil, ierr
	}
	if err != nil {
		return nil, err
	}
	r.stops += sres.Counters.Stops
	r.maxActive = max(r.maxActive, sres.Counters.MaxActive)
	return r.appendWirelist(tr, root, sres.Netlist)
}
