// Package scan implements ACE's back end: the edge-based scanline
// sweep that finds connectivity and devices (ACE §3).
//
// A scanline moves from the top of the chip to the bottom, pausing
// only where a box's top or bottom edge occurs. The region between
// two consecutive stops is a strip in which the cross-section of every
// layer is constant. At each stop the sweep:
//
//  1. fetches the boxes whose top coincides with the scanline and
//     inserts them into per-layer active lists (paper steps 2.a, 2.b);
//  2. computes the strip's material cross-sections by interval algebra
//     on the four interacting layers — channel = diff ∩ poly − buried —
//     plus metal, cuts and implant;
//  3. carries net identity from strip to strip through a union-find:
//     same-material intervals that share boundary of positive length
//     are the same net; contact cuts and buried contacts union nets
//     across layers; channel intervals accumulate into devices
//     (paper step 2.c);
//  4. advances to the larger of the next incoming top and the highest
//     active bottom (paper step 2.d).
//
// Nothing is output until the sweep completes, because two nets that
// look distinct can merge lower down (ACE §4, space complexity).
package scan

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"ace/internal/build"
	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// Source supplies boxes sorted by descending top edge; it is
// implemented by *frontend.Stream.
type Source interface {
	NextTop() (int64, bool)
	Next() (frontend.Box, bool)
}

// pendingSource is a Source that holds undelivered geometry in memory
// (frontend.Stream's lazy heap); the per-stop memory budget counts it.
type pendingSource interface {
	PendingBytes() int64
}

// Options configures a sweep.
type Options struct {
	// KeepGeometry records the constituent rectangles of every net and
	// device (the extractor's "output the geometry" user option; also
	// what HEXT's interface computation consumes).
	KeepGeometry bool

	// Labels are the design's instantiated name labels.
	Labels []frontend.Label

	// InsertionSort switches step 2.a back to the paper's original
	// per-box insertion sort instead of the batched merge (the
	// bin-sort refinement §4 describes). Only the ablation benchmark
	// uses it: with insertion sort the N^{3/2} term is measurable on
	// large chips, exactly as the analysis predicts.
	InsertionSort bool

	// Ctx, when non-nil, is checked at every scanline stop so a
	// cancelled or timed-out extraction unwinds within one stop's work.
	Ctx context.Context

	// Limits bounds the sweep: MaxBoxes caps boxes received from the
	// front end, MaxMemBytes caps the estimated active-list footprint.
	Limits guard.Limits

	// Pool, when non-nil, supplies and reclaims sweepers, builders and
	// sort scratch so repeated sweeps stop allocating. Results are
	// byte-identical with and without it.
	Pool *Pool

	// stage attributes this sweep's errors and fault-injection points;
	// the parallel sweep sets it per band. Empty means guard.StageSweep.
	stage string
}

func (o *Options) stageName() string {
	if o.stage != "" {
		return o.stage
	}
	return guard.StageSweep
}

// Counters reports the work the sweep performed; the complexity
// experiments (E6) read these.
type Counters struct {
	Stops       int   // scanline stops (expected O(√N))
	BoxesIn     int   // boxes received from the front end
	MaxActive   int   // peak total active-list length (expected O(√N))
	SumActive   int64 // sum of active-list lengths over stops
	NetElems    int   // union-find elements allocated for nets
	DevElems    int   // union-find elements allocated for devices
	GateAnomaly int   // devices that saw more than one gate net
	LabelMisses int   // labels that matched no conducting geometry
}

// Timing breaks down back-end time for the phase-distribution
// experiment (E4).
type Timing struct {
	Insert  time.Duration // building newGeometry + active lists
	Devices time.Duration // interval algebra, connectivity, devices
	Output  time.Duration // netlist finalisation
}

// Result is a completed sweep.
type Result struct {
	Netlist  *netlist.Netlist
	Counters Counters
	Timing   Timing
	Warnings []string
}

// Sweep runs the scanline over the source and returns the extracted
// netlist. It is panic-isolated: a panic anywhere in the sweep (or in
// the Source it pulls from) surfaces as a *guard.PanicError instead of
// crashing the caller.
func Sweep(src Source, opt Options) (res *Result, err error) {
	defer guard.Recover(opt.stageName(), &err)
	if err := guard.Inject(opt.stageName()); err != nil {
		return nil, err
	}
	s := opt.Pool.getSweeper(src, opt)
	if err := s.run(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	nl, fs := s.b.Finish()
	s.timing.Output = time.Since(t0)
	s.counters.GateAnomaly = fs.GateAnomalies
	s.counters.NetElems = s.b.NetElems()
	s.counters.DevElems = s.b.DevElems()
	res = &Result{
		Netlist:  nl,
		Counters: s.counters,
		Timing:   s.timing,
		Warnings: append(s.warnings, s.b.Warnings()...),
	}
	opt.Pool.putSweeper(s)
	return res, nil
}

// abox is one active box: geometry currently intersecting the
// scanline.
type abox struct {
	x0, x1 int64
	bottom int64
}

type sweeper struct {
	src Source
	opt Options

	b *build.Builder

	active  [tech.NumLayers][]abox
	newGeom [tech.NumLayers][]abox // incoming boxes at the current stop
	merged  []abox                 // scratch for merging newGeom into active

	// maxBot is the highest bottom among the active boxes (valid when
	// haveBot): exit recomputes it over the survivors it already visits,
	// and every incoming box raises it.
	maxBot  int64
	haveBot bool

	// Previous strip cross-sections.
	prevPoly, prevDiff, prevMetal []ival
	prevChan                      []ival

	// Scratch buffers reused every strip.
	rawPoly, rawDiff, rawMetal      []xrange
	rawBur, rawImpl, rawCut         []xrange
	chanR, diffCondR, burConR, tmpR []xrange
	curPoly, curDiff, curMetal      []ival
	curChan                         []ival

	labels []frontend.Label // sorted by descending y
	nextLb int

	// Band limits for the parallel sweep: when set, the sweeper
	// snapshots the strip cross-section touching the band's top and
	// bottom boundaries so the stitcher can match adjacent bands.
	band    bandLimits
	topFace face
	botFace face

	counters Counters
	timing   Timing
	warnings []string
	warnBuf  []byte // scratch for warnLabelMiss; retained across pooled reuse
}

// bandLimits bounds a sweeper to one horizontal band of the design.
type bandLimits struct {
	hasTop, hasBot bool
	top, bot       int64
}

// face is the cross-section of the strip that touches a band boundary:
// the conducting intervals and channel intervals, with their element
// ids in the band builder's id space. It is the band analogue of
// HEXT's window interface (the edges Compose matches).
type face struct {
	poly, diff, metal []ival
	chans             []ival
}

func newSweeper(src Source, opt Options) *sweeper {
	s := &sweeper{
		src: src,
		opt: opt,
		b:   &build.Builder{KeepGeometry: opt.KeepGeometry},
	}
	s.labels = append(s.labels, opt.Labels...)
	sortLabelsByY(s.labels)
	return s
}

// sortLabelsByY stable-sorts labels by descending Y. Equal-Y labels
// keep their input order, so the sweep binds labels — and emits miss
// warnings — in a fixed order; the sort allocates nothing and stays
// O(n log n) for a design with many labels.
func sortLabelsByY(lbs []frontend.Label) {
	slices.SortStableFunc(lbs, func(a, b frontend.Label) int {
		return cmp.Compare(b.At.Y, a.At.Y)
	})
}

// warnLabelMiss records "label <quoted name> at (X,Y) <why>". The
// message is assembled with strconv appends into per-sweeper scratch
// so a warm sweep pays exactly one allocation per warning — the string
// handed to the caller — rather than the nested fmt.Sprintf calls
// (%q, %v via Point.String) the obvious formulation costs.
func (s *sweeper) warnLabelMiss(lb frontend.Label, why string) {
	b := append(s.warnBuf[:0], "label "...)
	b = strconv.AppendQuote(b, lb.Name)
	b = append(b, " at ("...)
	b = strconv.AppendInt(b, lb.At.X, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, lb.At.Y, 10)
	b = append(b, ") "...)
	b = append(b, why...)
	s.warnBuf = b
	s.warnings = append(s.warnings, string(b))
}

func (s *sweeper) run() error {
	t0 := time.Now()
	cur, ok := s.src.NextTop()
	s.timing.Insert += time.Since(t0)
	if !ok {
		return nil // empty design: empty netlist
	}
	stage := s.opt.stageName()
	// Under a memory budget, a lazy source's pending geometry counts
	// with the active lists, and it is checked at every box fetched:
	// one NextTop can expand a hierarchy bomb by far more than a
	// stop's worth of boxes.
	var pending pendingSource
	if s.opt.Limits.MaxMemBytes > 0 {
		pending, _ = s.src.(pendingSource)
	}
	act := 0 // active-list length as of the last stop
	for {
		t0 := time.Now()
		// Paper step 2.a: fetch all geometry whose top coincides with
		// the scanline and sort it by x into per-layer newGeometry
		// lists.
		for {
			top, ok := s.src.NextTop()
			if !ok || top != cur {
				break
			}
			b, _ := s.src.Next()
			s.counters.BoxesIn++
			if pending != nil {
				if err := s.opt.Limits.CheckMem(stage, int64(act)*guard.BoxBytes+pending.PendingBytes()); err != nil {
					return err
				}
			}
			nb := abox{x0: b.Rect.XMin, x1: b.Rect.XMax, bottom: b.Rect.YMin}
			if s.opt.InsertionSort {
				s.insertOne(b.Layer, nb)
			} else {
				s.newGeom[b.Layer] = append(s.newGeom[b.Layer], nb)
			}
			if !s.haveBot || nb.bottom > s.maxBot {
				s.maxBot, s.haveBot = nb.bottom, true
			}
		}
		// Paper step 2.b: sort each newGeometry list by x and merge it
		// into its layer's active list.
		for l := range s.newGeom {
			if len(s.newGeom[l]) > 0 {
				s.mergeNew(tech.Layer(l))
			}
		}

		// Paper step 2.d: next stop.
		next, haveNext := int64(0), false
		if top, ok := s.src.NextTop(); ok {
			next, haveNext = top, true
		}
		if s.haveBot {
			bot := s.maxBot
			if bot >= cur {
				return fmt.Errorf("scan: internal error: active bottom %d not below scanline %d", bot, cur)
			}
			if !haveNext || bot > next {
				next, haveNext = bot, true
			}
		}
		s.timing.Insert += time.Since(t0)
		if !haveNext {
			break // nothing active and nothing incoming: done
		}

		// Paper step 2.c: compute devices and connectivity for the
		// strip [next, cur].
		t1 := time.Now()
		s.strip(cur, next)
		s.timing.Devices += time.Since(t1)

		s.counters.Stops++
		act = 0
		for l := range s.active {
			act += len(s.active[l])
		}
		s.counters.SumActive += int64(act)
		if act > s.counters.MaxActive {
			s.counters.MaxActive = act
		}

		// Hardening checkpoint, once per stop: cooperative cancellation
		// bounds unwind latency to one strip's work; the box budget caps
		// front-end input; the memory budget uses the active-list
		// footprint — the sweep's dominant live allocation — plus what
		// a lazy source still holds pending.
		if err := guard.Ctx(s.opt.Ctx, stage); err != nil {
			return err
		}
		if err := guard.Inject(stage); err != nil {
			return err
		}
		if err := s.opt.Limits.CheckBoxes(stage, int64(s.counters.BoxesIn)); err != nil {
			return err
		}
		mem := int64(act) * guard.BoxBytes
		if pending != nil {
			mem += pending.PendingBytes()
		}
		if err := s.opt.Limits.CheckMem(stage, mem); err != nil {
			return err
		}

		// Exit geometry whose bottom coincides with the new scanline.
		t2 := time.Now()
		s.exit(next)
		s.timing.Insert += time.Since(t2)
		cur = next
	}
	// Any labels below the last geometry can never match.
	for s.nextLb < len(s.labels) {
		s.counters.LabelMisses++
		s.warnLabelMiss(s.labels[s.nextLb], "matches no geometry")
		s.nextLb++
	}
	return nil
}

// insertOne places one box into its layer's active list with the
// paper's original insertion sort (see Options.InsertionSort).
func (s *sweeper) insertOne(l tech.Layer, nb abox) {
	list := s.active[l]
	i := sort.Search(len(list), func(k int) bool { return list[k].x0 > nb.x0 })
	list = append(list, abox{})
	copy(list[i+1:], list[i:])
	list[i] = nb
	s.active[l] = list
}

// mergeNew sorts a layer's newGeometry list — one stop's batch, in
// whatever order the source delivered it — and merges it into the
// layer's active list (also sorted by x0). The paper uses an insertion
// sort here; sorting the batch and merging it in one pass is the
// bin-sort refinement §4 mentions ("the term containing N^3/2 can be
// made linear by using bin-sort"). The sort key is the whole abox, so
// the active lists depend only on the stop's set of boxes, not on the
// order they arrived in.
func (s *sweeper) mergeNew(l tech.Layer) {
	nw := s.newGeom[l]
	sortBatch(nw)
	old := s.active[l]
	out := s.merged[:0]
	i, j := 0, 0
	for i < len(old) && j < len(nw) {
		if old[i].x0 <= nw[j].x0 {
			out = append(out, old[i])
			i++
		} else {
			out = append(out, nw[j])
			j++
		}
	}
	out = append(out, old[i:]...)
	out = append(out, nw[j:]...)
	// Swap buffers: active becomes the merged list, the old active
	// slice becomes next round's scratch.
	s.active[l], s.merged = out, old
	s.newGeom[l] = nw[:0]
}

// lessAbox orders a stop's batch by x0, then x1, then bottom: the
// whole abox, so boxes that compare equal are interchangeable.
func lessAbox(a, b *abox) bool {
	if a.x0 != b.x0 {
		return a.x0 < b.x0
	}
	if a.x1 != b.x1 {
		return a.x1 < b.x1
	}
	return a.bottom < b.bottom
}

// binaryInsertMax is the largest batch sortBatch sorts by binary
// insertion.
const binaryInsertMax = 512

// sortBatch sorts a stop's batch by lessAbox. Batches are not small:
// per layer, the Table 5-1 chips at scale 1.0 average 8 (cherry) to
// 119 (testram) boxes per stop, in the heap's arbitrary order, and
// riscb's largest batch is 612. Up to binaryInsertMax a binary
// insertion sort with the comparison inlined beats slices.SortFunc's
// call per comparison; beyond it the quadratic moves lose
// (BenchmarkStopBatch).
func sortBatch(v []abox) {
	if len(v) > binaryInsertMax {
		slices.SortFunc(v, func(a, b abox) int {
			if lessAbox(&a, &b) {
				return -1
			}
			if lessAbox(&b, &a) {
				return 1
			}
			return 0
		})
		return
	}
	for i := 1; i < len(v); i++ {
		x := v[i]
		if !lessAbox(&x, &v[i-1]) {
			continue
		}
		lo, hi := 0, i-1
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if lessAbox(&x, &v[m]) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		copy(v[lo+1:i+1], v[lo:i])
		v[lo] = x
	}
}

// exit removes boxes whose bottom coincides with the scanline and
// finds the highest bottom among the survivors.
func (s *sweeper) exit(y int64) {
	s.haveBot = false
	for l := range s.active {
		list := s.active[l]
		w := 0
		for _, b := range list {
			if b.bottom != y {
				list[w] = b
				w++
				if !s.haveBot || b.bottom > s.maxBot {
					s.maxBot, s.haveBot = b.bottom, true
				}
			}
		}
		s.active[l] = list[:w]
	}
}

// strip processes the strip whose top is yTop and bottom is yBot.
func (s *sweeper) strip(yTop, yBot int64) {
	h := yTop - yBot

	s.rawDiff = rangesOf(s.active[tech.Diff], s.rawDiff)
	s.rawPoly = rangesOf(s.active[tech.Poly], s.rawPoly)
	s.rawMetal = rangesOf(s.active[tech.Metal], s.rawMetal)
	s.rawBur = rangesOf(s.active[tech.Buried], s.rawBur)
	s.rawImpl = rangesOf(s.active[tech.Implant], s.rawImpl)
	s.rawCut = rangesOf(s.active[tech.Cut], s.rawCut)

	// channel = diff ∩ poly − buried; conducting diffusion is the rest.
	s.tmpR = intersectRanges(s.rawDiff, s.rawPoly, s.tmpR)
	s.chanR = subtractRanges(s.tmpR, s.rawBur, s.chanR)
	s.burConR = intersectRanges(s.tmpR, s.rawBur, s.burConR)
	s.diffCondR = subtractRanges(s.rawDiff, s.chanR, s.diffCondR)

	// Net continuity per conducting material.
	s.curPoly = s.assignNets(s.rawPoly, s.prevPoly, s.curPoly, yTop)
	s.curDiff = s.assignNets(s.diffCondR, s.prevDiff, s.curDiff, yTop)
	s.curMetal = s.assignNets(s.rawMetal, s.prevMetal, s.curMetal, yTop)

	// Device-region continuity.
	s.curChan = s.assignDevs(s.chanR, s.prevChan, s.curChan)

	// Buried contacts join poly and diffusion.
	var ip, id, im int // cursors: see touching
	for _, bc := range s.burConR {
		ip = touching(s.curPoly, ip, bc.x0)
		id = touching(s.curDiff, id, bc.x0)
		s.unionAcross(bc, s.curPoly[ip:], s.curDiff[id:])
	}
	// Contact cuts join metal to poly and/or diffusion beneath.
	ip, id = 0, 0
	for _, c := range s.rawCut {
		im = touching(s.curMetal, im, c.x0)
		ip = touching(s.curPoly, ip, c.x0)
		id = touching(s.curDiff, id, c.x0)
		s.unionAcross(c, s.curMetal[im:], s.curPoly[ip:])
		s.unionAcross(c, s.curMetal[im:], s.curDiff[id:])
	}

	// Device accounting.
	s.devStrip(yTop, yBot, h)

	// Labels inside this strip.
	s.attachLabels(yTop, yBot)

	// Record geometry.
	if s.opt.KeepGeometry {
		s.recordGeometry(yTop, yBot)
	}

	// Snapshot band-boundary cross-sections for the stitcher. A band's
	// geometry is clipped to its limits, so only the first strip can
	// touch the top boundary and only the last can touch the bottom;
	// if no geometry reaches a boundary the face stays empty, exactly
	// as an empty seam should.
	if s.band.hasTop && yTop == s.band.top {
		s.topFace = captureFace(s.curPoly, s.curDiff, s.curMetal, s.curChan)
	}
	if s.band.hasBot && yBot == s.band.bot {
		s.botFace = captureFace(s.curPoly, s.curDiff, s.curMetal, s.curChan)
	}

	s.prevPoly, s.curPoly = s.curPoly, s.prevPoly
	s.prevDiff, s.curDiff = s.curDiff, s.prevDiff
	s.prevMetal, s.curMetal = s.curMetal, s.prevMetal
	s.prevChan, s.curChan = s.curChan, s.prevChan
}

// captureFace copies the current strip's interval lists (the scratch
// buffers are reused every strip, so the snapshot must own its memory).
func captureFace(poly, diff, metal, chans []ival) face {
	cp := func(v []ival) []ival {
		if len(v) == 0 {
			return nil
		}
		out := make([]ival, len(v))
		copy(out, v)
		return out
	}
	return face{poly: cp(poly), diff: cp(diff), metal: cp(metal), chans: cp(chans)}
}

// rangesOf converts a sorted active list to merged disjoint ranges.
func rangesOf(list []abox, out []xrange) []xrange {
	out = out[:0]
	for _, b := range list {
		if n := len(out); n > 0 && b.x0 <= out[n-1].x1 {
			if b.x1 > out[n-1].x1 {
				out[n-1].x1 = b.x1
			}
		} else {
			out = append(out, xrange{b.x0, b.x1})
		}
	}
	return out
}

// assignNets gives each range in cur a net id: the union of all
// previous-strip intervals of the same material that share boundary of
// positive length, or a fresh net.
func (s *sweeper) assignNets(cur []xrange, prev []ival, out []ival, yTop int64) []ival {
	out = out[:0]
	j := 0
	for _, r := range cur {
		for j < len(prev) && prev[j].x1 <= r.x0 {
			j++
		}
		id := int32(-1)
		for k := j; k < len(prev) && prev[k].x0 < r.x1; k++ {
			if overlapLen(r.x0, r.x1, prev[k].x0, prev[k].x1) > 0 {
				if id < 0 {
					id = s.b.FindNet(prev[k].id)
				} else {
					id = s.b.UnionNets(id, prev[k].id)
				}
			}
		}
		if id < 0 {
			id = s.b.NewNet(geom.Pt(r.x0, yTop))
		}
		out = append(out, ival{r.x0, r.x1, id})
	}
	return out
}

// assignDevs is assignNets for channel regions over the device forest.
func (s *sweeper) assignDevs(cur []xrange, prev []ival, out []ival) []ival {
	out = out[:0]
	j := 0
	for _, r := range cur {
		for j < len(prev) && prev[j].x1 <= r.x0 {
			j++
		}
		id := int32(-1)
		for k := j; k < len(prev) && prev[k].x0 < r.x1; k++ {
			if overlapLen(r.x0, r.x1, prev[k].x0, prev[k].x1) > 0 {
				if id < 0 {
					id = s.b.FindDev(prev[k].id)
				} else {
					id = s.b.UnionDevs(id, prev[k].id)
				}
			}
		}
		if id < 0 {
			id = s.b.NewDev()
		}
		out = append(out, ival{r.x0, r.x1, id})
	}
	return out
}

// touching advances cursor i to the first interval of list whose
// right end is at or past x: the candidates for touching or overlapping
// a range starting at x. Interval lists are x-sorted and disjoint, and
// each caller visits its ranges left to right, so x never decreases
// and the cursor only moves right — the same index a binary search
// would find, in amortised O(1).
func touching(list []ival, i int, x int64) int {
	for i < len(list) && list[i].x1 < x {
		i++
	}
	return i
}

// unionAcross unions the nets of intervals in lists a and b that
// overlap the range r with positive length. Both lists start at their
// first interval touching r (see touching).
func (s *sweeper) unionAcross(r xrange, a, b []ival) {
	for i := 0; i < len(a) && a[i].x0 < r.x1; i++ {
		if a[i].x1 <= r.x0 {
			continue
		}
		for j := 0; j < len(b) && b[j].x0 < r.x1; j++ {
			lo := max64(r.x0, max64(a[i].x0, b[j].x0))
			hi := min64(r.x1, min64(a[i].x1, b[j].x1))
			if hi > lo {
				s.b.UnionNets(a[i].id, b[j].id)
			}
		}
	}
}

// devStrip performs per-strip device accounting: channel area, gate
// nets, implant coverage and the source/drain contact edges (ACE §3's
// length/width algorithm).
func (s *sweeper) devStrip(yTop, yBot, h int64) {
	// Channels are visited left to right, so every lookup below is a
	// forward cursor (see touching).
	var ki, kp, kd, kq int
	for _, ch := range s.curChan {
		s.b.AddChannel(ch.id, geom.Rect{XMin: ch.x0, YMin: yBot, XMax: ch.x1, YMax: yTop})
		// Implant coverage determines depletion vs enhancement.
		for ki < len(s.rawImpl) && s.rawImpl[ki].x1 <= ch.x0 {
			ki++
		}
		for k := ki; k < len(s.rawImpl) && s.rawImpl[k].x0 < ch.x1; k++ {
			s.b.AddImplant(ch.id, overlapLen(ch.x0, ch.x1, s.rawImpl[k].x0, s.rawImpl[k].x1)*h)
		}
		// Gate: the poly interval containing the channel.
		kp = touching(s.curPoly, kp, ch.x0)
		for k := kp; k < len(s.curPoly) && s.curPoly[k].x0 <= ch.x0; k++ {
			if s.curPoly[k].x0 <= ch.x0 && s.curPoly[k].x1 >= ch.x1 {
				s.b.AddGate(ch.id, s.curPoly[k].id)
				break
			}
		}
		// Horizontal S/D contacts: conducting diffusion abutting the
		// channel's left or right edge contributes the strip height.
		kd = touching(s.curDiff, kd, ch.x0)
		for k := kd; k < len(s.curDiff) && s.curDiff[k].x0 <= ch.x1; k++ {
			if s.curDiff[k].x1 == ch.x0 || s.curDiff[k].x0 == ch.x1 {
				s.b.AddTerm(ch.id, s.curDiff[k].id, h)
			}
		}
		// Vertical S/D contacts: conducting diffusion in the previous
		// strip overlapping this channel contributes the overlap.
		kq = touching(s.prevDiff, kq, ch.x0)
		for k := kq; k < len(s.prevDiff) && s.prevDiff[k].x0 < ch.x1; k++ {
			if ovl := overlapLen(ch.x0, ch.x1, s.prevDiff[k].x0, s.prevDiff[k].x1); ovl > 0 {
				s.b.AddTerm(ch.id, s.prevDiff[k].id, ovl)
			}
		}
	}
	// Vertical contacts the other way round: this strip's conducting
	// diffusion under the previous strip's channel.
	kc := 0
	for _, di := range s.curDiff {
		kc = touching(s.prevChan, kc, di.x0)
		for k := kc; k < len(s.prevChan) && s.prevChan[k].x0 < di.x1; k++ {
			if ovl := overlapLen(di.x0, di.x1, s.prevChan[k].x0, s.prevChan[k].x1); ovl > 0 {
				s.b.AddTerm(s.prevChan[k].id, di.id, ovl)
			}
		}
	}
}

// attachLabels binds user names to the nets under them.
func (s *sweeper) attachLabels(yTop, yBot int64) {
	for s.nextLb < len(s.labels) {
		lb := s.labels[s.nextLb]
		if lb.At.Y > yTop {
			// Above all remaining geometry: it can never match now.
			s.counters.LabelMisses++
			s.warnLabelMiss(lb, "matches no geometry")
			s.nextLb++
			continue
		}
		if lb.At.Y < yBot {
			return // belongs to a later strip
		}
		if s.tryLabel(lb) {
			s.nextLb++
			continue
		}
		if lb.At.Y == yBot {
			// Exactly on the strip boundary: geometry starting at the
			// next strip may still match.
			return
		}
		s.counters.LabelMisses++
		s.warnLabelMiss(lb, "matches no conducting geometry")
		s.nextLb++
	}
}

func (s *sweeper) tryLabel(lb frontend.Label) bool {
	try := func(list []ival) bool {
		for _, iv := range list {
			if iv.x0 <= lb.At.X && lb.At.X <= iv.x1 {
				s.b.NameNet(iv.id, lb.Name)
				return true
			}
		}
		return false
	}
	if lb.HasLayer {
		switch lb.Layer {
		case tech.Metal:
			return try(s.curMetal)
		case tech.Poly:
			return try(s.curPoly)
		case tech.Diff:
			return try(s.curDiff)
		default:
			return false
		}
	}
	return try(s.curMetal) || try(s.curPoly) || try(s.curDiff)
}

func (s *sweeper) recordGeometry(yTop, yBot int64) {
	rec := func(list []ival, layer tech.Layer) {
		for _, iv := range list {
			s.b.AddNetGeometry(iv.id, layer,
				geom.Rect{XMin: iv.x0, YMin: yBot, XMax: iv.x1, YMax: yTop})
		}
	}
	rec(s.curMetal, tech.Metal)
	rec(s.curPoly, tech.Poly)
	rec(s.curDiff, tech.Diff)
}
