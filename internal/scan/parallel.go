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

// ParallelSweep runs the scanline over the design in K horizontal
// bands concurrently and stitches the results. Bands are cut at
// scanline stop boundaries (box tops), chosen so each band receives
// roughly the same number of boxes; every band runs an ordinary
// sweeper over its clipped geometry with its own builder and scratch,
// sharing no mutable state. Adjacent bands are then joined by matching
// the interval cross-sections at their common boundary — the same
// edge-matching contract HEXT's Compose applies to window interfaces:
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
// boxes must be sorted by descending top edge (frontend.Stream.Drain
// order); labels ride in opt.Labels as usual. Labels that sit exactly
// on a band boundary are resolved against the two adjacent faces with
// the serial sweep's preference order (strip above first, then the
// strip below; metal, then poly, then diffusion).
func ParallelSweep(boxes []frontend.Box, opt Options, workers int) (*Result, error) {
	if workers > len(boxes)/minBoxesPerBand {
		workers = len(boxes) / minBoxesPerBand
	}
	if workers < 2 {
		return Sweep(&boxSource{boxes: boxes}, opt)
	}
	if !TopsSorted(boxes) {
		scratch := sortTopsStable(boxes, opt.Pool.GetBoxBuf())
		opt.Pool.PutBoxBuf(scratch)
	}

	cuts := chooseCuts(boxes, workers)
	if len(cuts) == 0 {
		return Sweep(&boxSource{boxes: boxes}, opt)
	}

	bandBoxes := partitionBoxes(boxes, cuts, opt.Pool)
	srcs := make([]Source, len(bandBoxes))
	for k := range bandBoxes {
		srcs[k] = &boxSource{boxes: bandBoxes[k]}
	}
	res, err := sweepBands(srcs, cuts, len(boxes), opt)
	// The band-clipped copies are dead once the sweep returns (Results
	// copy what they keep), so their capacity goes back to the pool.
	for _, bb := range bandBoxes {
		opt.Pool.PutBoxBuf(bb)
	}
	return res, err
}

// ParallelSweepSources is ParallelSweep for callers that produce the
// per-band geometry themselves — the tiled path reads each band's
// boxes straight from the tile rows it covers, so the design is never
// materialised in memory. srcs must hold one source
// per band (len(cuts)+1), each delivering the band's boxes clipped to
// it exactly as partitionBoxes would (a box belongs to every band it
// intersects; a top exactly on a cut goes to the band below), in
// descending-top order. boxesIn is the design's box count before
// band duplication, reported in Counters.BoxesIn.
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

// chooseCuts picks up to workers-1 strictly decreasing y values from
// the box tops (so every cut is a scanline stop) at box-count
// quantiles, balancing work across bands. It must stay in lockstep
// with CutsFromTops (TestCutsFromTopsMatchesChooseCuts pins this):
// both see the same descending-top sequence, so they pick identical
// cuts — which is what lets the tiled path reproduce this pipeline's
// band boundaries without materialising the boxes.
func chooseCuts(boxes []frontend.Box, workers int) []int64 {
	cuts := make([]int64, 0, workers-1)
	for k := 1; k < workers; k++ {
		c := boxes[k*len(boxes)/workers].Rect.YMax
		if c >= boxes[0].Rect.YMax {
			continue // the whole prefix shares one top
		}
		if n := len(cuts); n == 0 || c < cuts[n-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// CutsFromTops is chooseCuts over a descending-sorted list of box top
// edges. Because the quantile cut depends only on the sorted top
// multiset, the result equals chooseCuts on any box list with the same
// tops.
func CutsFromTops(tops []int64, workers int) []int64 {
	return CutsFromTopsFunc(len(tops), func(i int) int64 { return tops[i] }, workers)
}

// CutsFromTopsFunc is CutsFromTops for callers that can look up the
// top at a given descending rank without materialising the whole top
// list — the tiled on-disk source resolves the handful of quantile
// probes by decoding only the tile rows they land in. at(i) must
// return the i-th largest top (0-based) of an n-box design; the
// result then equals chooseCuts on any box list with the same tops.
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

// EffectiveBands returns the band count ParallelSweep would actually
// use for n boxes and the requested worker count: fewer than
// minBoxesPerBand boxes per band is not worth a goroutine, and below
// two bands the serial sweep runs instead.
func EffectiveBands(n, workers int) int {
	if workers > n/minBoxesPerBand {
		workers = n / minBoxesPerBand
	}
	return workers
}

// partitionBoxes assigns each box to every band it intersects, clipped
// to the band. Band k covers the half-open interval (lo_k, hi_k] with
// hi_0 = +inf and lo_last = -inf; a box whose top sits exactly on a
// cut belongs to the band below, mirroring the serial sweep where the
// strip below a stop carries the incoming geometry.
func partitionBoxes(boxes []frontend.Box, cuts []int64, pool *Pool) [][]frontend.Box {
	nBands := len(cuts) + 1
	out := make([][]frontend.Box, nBands)
	for i := range out {
		if b := pool.GetBoxBuf(); b != nil {
			out[i] = b
			continue
		}
		// Pre-size: most boxes land in exactly one band.
		out[i] = make([]frontend.Box, 0, len(boxes)/nBands+1)
	}
	for _, b := range boxes {
		y0, y1 := b.Rect.YMin, b.Rect.YMax
		// First band whose lower boundary is below the box top.
		k := 0
		for k < len(cuts) && y1 <= cuts[k] {
			k++
		}
		for ; k < nBands; k++ {
			hiOK := k == 0 || y0 < cuts[k-1]
			if !hiOK {
				break
			}
			r := b.Rect
			if k > 0 && r.YMax > cuts[k-1] {
				r.YMax = cuts[k-1]
			}
			if k < len(cuts) && r.YMin < cuts[k] {
				r.YMin = cuts[k]
			}
			out[k] = append(out[k], frontend.Box{Layer: b.Layer, Rect: r})
			if k == len(cuts) || y0 >= cuts[k] {
				break
			}
		}
	}
	return out
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
