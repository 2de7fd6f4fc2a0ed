package scan

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ace/internal/build"
	"ace/internal/frontend"
	"ace/internal/guard"
	"ace/internal/tech"
)

// ParallelSweepSources runs the scanline over the design in K
// horizontal bands concurrently and stitches the results. The caller
// produces each band's geometry — the tiled path reads it straight
// from the tile rows the band covers (tile.Reader.Sources), so the
// design is never materialised in memory. Bands are cut at scanline
// stop boundaries (box tops; see CutsFromTopsFunc); every band runs an
// ordinary sweeper over its clipped geometry with its own builder and
// scratch, sharing no mutable state. Adjacent bands are then joined by
// matching the interval cross-sections at their common boundary — the
// same edge-matching contract HEXT's Compose applies to window
// interfaces:
//
//   - same-material conducting intervals overlapping with positive
//     length are the same net;
//   - channel intervals meeting channel intervals are the same device;
//   - channel intervals meeting conducting diffusion gain the
//     source/drain contact the band split hid (edge = overlap), in
//     both directions across the seam.
//
// Splitting a strip at a band boundary is harmless everywhere else: a
// strip's cross-section is constant in y, so sub-strip areas sum and
// repeated unions are idempotent. The stitched result is therefore
// netlist-isomorphic to the serial sweep's.
//
// srcs must hold one source per band (len(cuts)+1), each delivering
// the band's boxes in descending-top order, clipped to the band: band
// k covers the half-open interval (cuts[k], cuts[k-1]], unbounded
// above for k = 0 and below for the last band; a box belongs to every
// band it intersects, and a top exactly on a cut goes to the band
// below, mirroring the serial sweep, where the strip below a stop
// carries the incoming geometry. Labels ride in opt.Labels as usual.
// Labels that sit exactly on a cut are resolved against the two
// adjacent faces with the serial sweep's preference order (strip above
// first, then the strip below; metal, then poly, then diffusion).
// boxesIn is the design's box count before band duplication, reported
// in Counters.BoxesIn.
func ParallelSweepSources(srcs []Source, cuts []int64, boxesIn int, opt Options) (*Result, error) {
	if len(srcs) != len(cuts)+1 {
		return nil, fmt.Errorf("scan: %d band sources for %d cuts", len(srcs), len(cuts))
	}
	return sweepBands(srcs, cuts, boxesIn, opt)
}

// sweepBands runs one sweeper per band concurrently and stitches the
// results at the seams. Every band goroutine runs under panic
// isolation; the first band failure cancels its siblings so the pool
// unwinds in bounded time instead of finishing bands whose result will
// be discarded.
func sweepBands(srcs []Source, cuts []int64, boxesIn int, opt Options) (res *Result, err error) {
	defer guard.Recover(guard.StageStitch, &err)
	nBands := len(srcs)
	bandLabels, seamLabels := routeLabels(opt.Labels, cuts)

	parent := opt.Ctx
	if parent == nil {
		parent = context.Background()
	}
	bctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Sweep every band concurrently.
	sweepers := make([]*sweeper, nBands)
	errs := make([]error, nBands)
	var wg sync.WaitGroup
	for k := 0; k < nBands; k++ {
		bopt := opt
		bopt.Labels = bandLabels[k]
		bopt.Ctx = bctx
		bopt.stage = guard.StageBand
		s := opt.Pool.getSweeper(srcs[k], bopt)
		if k > 0 {
			s.band.hasTop, s.band.top = true, cuts[k-1]
		}
		if k < nBands-1 {
			s.band.hasBot, s.band.bot = true, cuts[k]
		}
		sweepers[k] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = guard.Run(guard.StageBand, func() error {
				if err := guard.Inject(guard.StageBand); err != nil {
					return err
				}
				return s.run()
			})
			if errs[k] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	// Prefer the root cause over secondary cancellations: a band that
	// failed for its own reason outranks bands that merely observed the
	// broadcast cancel.
	var ctxErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if errors.Is(e, context.Canceled) && !errors.Is(parent.Err(), context.Canceled) {
			ctxErr = e
			continue
		}
		return nil, e
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	if err := guard.Inject(guard.StageStitch); err != nil {
		return nil, err
	}

	// Stitch: absorb the band builders in top-to-bottom order, then
	// union and contact across each seam.
	master := opt.Pool.GetBuilder()
	master.KeepGeometry = opt.KeepGeometry
	res = &Result{}
	type offsets struct{ net, dev int32 }
	offs := make([]offsets, nBands)
	for k, s := range sweepers {
		offs[k].net, offs[k].dev = master.Absorb(s.b)
		res.Warnings = append(res.Warnings, s.warnings...)
		res.Counters.Stops += s.counters.Stops
		res.Counters.SumActive += s.counters.SumActive
		res.Counters.LabelMisses += s.counters.LabelMisses
		if s.counters.MaxActive > res.Counters.MaxActive {
			res.Counters.MaxActive = s.counters.MaxActive
		}
		res.Timing.Insert += s.timing.Insert
		res.Timing.Devices += s.timing.Devices
	}
	// BoxesIn counts design boxes, not the band-clipped copies.
	res.Counters.BoxesIn = boxesIn

	for j := 0; j < len(cuts); j++ {
		up, lo := &sweepers[j].botFace, &sweepers[j+1].topFace
		stitchSeam(master, up, lo, offs[j].net, offs[j+1].net, offs[j].dev, offs[j+1].dev)
		for _, lb := range seamLabels[j] {
			if !bindSeamLabel(master, lb, up, offs[j].net, lo, offs[j+1].net) {
				res.Counters.LabelMisses++
				res.Warnings = append(res.Warnings, fmt.Sprintf(
					"label %q at %v matches no conducting geometry", lb.Name, lb.At))
			}
		}
	}

	t0 := time.Now()
	nl, fs := master.Finish()
	res.Timing.Output = time.Since(t0)
	res.Netlist = nl
	res.Counters.GateAnomaly = fs.GateAnomalies
	res.Counters.NetElems = master.NetElems()
	res.Counters.DevElems = master.DevElems()
	res.Warnings = append(res.Warnings, master.Warnings()...)
	// Repool only after the seam loop above: stitching reads the band
	// sweepers' faces, and Finish is done with the master's arenas.
	for _, s := range sweepers {
		opt.Pool.putSweeper(s)
	}
	opt.Pool.PutBuilder(master)
	return res, nil
}

// minBoxesPerBand keeps the per-band fixed costs (goroutine, builder,
// face capture, absorb) from dominating tiny designs.
const minBoxesPerBand = 64

// SortTopDown orders boxes into the canonical sweep order: descending
// top edge, with full-record tie-breaks (layer, then XMin, YMin,
// XMax). Unlike a stable sort keyed on YMax alone, the result is a
// total order independent of the input permutation — two windows with
// the same box multiset sweep identically, which is what lets the
// hierarchical extractor's content-addressed leaf cache share sweeps
// between windows that agree only up to translation.
func SortTopDown(boxes []frontend.Box) {
	sort.Slice(boxes, func(i, j int) bool {
		a, b := &boxes[i], &boxes[j]
		if a.Rect.YMax != b.Rect.YMax {
			return a.Rect.YMax > b.Rect.YMax
		}
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Rect.XMin != b.Rect.XMin {
			return a.Rect.XMin < b.Rect.XMin
		}
		if a.Rect.YMin != b.Rect.YMin {
			return a.Rect.YMin < b.Rect.YMin
		}
		return a.Rect.XMax < b.Rect.XMax
	})
}

// NewBoxSource adapts a pre-drained, top-sorted box slice to Source.
func NewBoxSource(boxes []frontend.Box) Source { return &boxSource{boxes: boxes} }

// boxSource adapts a pre-drained, top-sorted box slice to Source.
type boxSource struct {
	boxes []frontend.Box
	i     int
}

func (s *boxSource) NextTop() (int64, bool) {
	if s.i >= len(s.boxes) {
		return 0, false
	}
	return s.boxes[s.i].Rect.YMax, true
}

func (s *boxSource) Next() (frontend.Box, bool) {
	if s.i >= len(s.boxes) {
		return frontend.Box{}, false
	}
	b := s.boxes[s.i]
	s.i++
	return b, true
}

// CutsFromTopsFunc picks up to workers-1 strictly decreasing y values
// from the box tops (so every cut is a scanline stop) at box-count
// quantiles, balancing work across bands. at(i) must return the i-th
// largest top (0-based) of an n-box design, so the caller never
// materialises the top list: the tiled on-disk source resolves the
// handful of quantile probes by decoding only the tile rows they land
// in. A quantile whose top equals the global top is skipped, since no
// band could lie above it.
func CutsFromTopsFunc(n int, at func(int) int64, workers int) []int64 {
	cuts := make([]int64, 0, workers-1)
	top0 := at(0)
	for k := 1; k < workers; k++ {
		c := at(k * n / workers)
		if c >= top0 {
			continue // the whole prefix shares one top
		}
		if nc := len(cuts); nc == 0 || c < cuts[nc-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// EffectiveBands returns the band count a banded sweep of n boxes
// actually uses for the requested worker count: fewer than
// minBoxesPerBand boxes per band is not worth a goroutine, and below
// two bands the serial sweep runs instead.
func EffectiveBands(n, workers int) int {
	if workers > n/minBoxesPerBand {
		workers = n / minBoxesPerBand
	}
	return workers
}

// routeLabels sends each label to the band that strictly contains its
// y, except labels sitting exactly on a cut: the serial sweep gives
// those two chances (the strip above, then the strip below), which
// spans two bands — the stitcher resolves them against the seam faces.
func routeLabels(labels []frontend.Label, cuts []int64) (byBand [][]frontend.Label, bySeam [][]frontend.Label) {
	nBands := len(cuts) + 1
	byBand = make([][]frontend.Label, nBands)
	bySeam = make([][]frontend.Label, len(cuts))
	for _, lb := range labels {
		k, seam := 0, -1
		for j, c := range cuts {
			if lb.At.Y == c {
				seam = j
				break
			}
			if lb.At.Y > c {
				break
			}
			k = j + 1
		}
		if seam >= 0 {
			bySeam[seam] = append(bySeam[seam], lb)
		} else {
			byBand[k] = append(byBand[k], lb)
		}
	}
	return byBand, bySeam
}

// stitchSeam applies the seam contract between the bottom face of the
// upper band and the top face of the lower band.
func stitchSeam(b *build.Builder, up, lo *face, upNet, loNet, upDev, loDev int32) {
	join := func(a, c []ival, f func(ai, ci ival, ovl int64)) {
		i, j := 0, 0
		for i < len(a) && j < len(c) {
			lov := max64(a[i].x0, c[j].x0)
			hov := min64(a[i].x1, c[j].x1)
			if hov > lov {
				f(a[i], c[j], hov-lov)
			}
			if a[i].x1 < c[j].x1 {
				i++
			} else {
				j++
			}
		}
	}
	unionNets := func(ai, ci ival, _ int64) {
		b.UnionNets(ai.id+upNet, ci.id+loNet)
	}
	join(up.poly, lo.poly, unionNets)
	join(up.diff, lo.diff, unionNets)
	join(up.metal, lo.metal, unionNets)
	join(up.chans, lo.chans, func(ai, ci ival, _ int64) {
		b.UnionDevs(ai.id+upDev, ci.id+loDev)
	})
	// Source/drain contacts hidden by the split: channel on one side of
	// the seam over conducting diffusion on the other.
	join(up.chans, lo.diff, func(ai, ci ival, ovl int64) {
		b.AddTerm(ai.id+upDev, ci.id+loNet, ovl)
	})
	join(up.diff, lo.chans, func(ai, ci ival, ovl int64) {
		b.AddTerm(ci.id+loDev, ai.id+upNet, ovl)
	})
}

// bindSeamLabel resolves a label sitting exactly on a band boundary,
// replicating the serial attachLabels order: the strip above first,
// then the strip below; within a strip metal, then poly, then
// diffusion (or only the label's own layer when it names one).
func bindSeamLabel(b *build.Builder, lb frontend.Label, up *face, upNet int32, lo *face, loNet int32) bool {
	tryFace := func(f *face, off int32) bool {
		try := func(list []ival) bool {
			for _, iv := range list {
				if iv.x0 <= lb.At.X && lb.At.X <= iv.x1 {
					b.NameNet(iv.id+off, lb.Name)
					return true
				}
			}
			return false
		}
		if lb.HasLayer {
			switch lb.Layer {
			case tech.Metal:
				return try(f.metal)
			case tech.Poly:
				return try(f.poly)
			case tech.Diff:
				return try(f.diff)
			default:
				return false
			}
		}
		return try(f.metal) || try(f.poly) || try(f.diff)
	}
	return tryFace(up, upNet) || tryFace(lo, loNet)
}
