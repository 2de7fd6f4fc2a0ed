// Package cifplot implements a flat, region-based circuit extractor in
// the style of Berkeley's cifplot circuit-analysis mode (Fitzpatrick,
// 1981) — ACE's second baseline in Table 5-2. The original program is
// lost; this stand-in reproduces its algorithmic profile: a correct
// flat extractor built on whole-region boolean operations and pairwise
// adjacency tests rather than a single incremental sweep. Its
// asymptotics are comparable to ACE's but its constants are several
// times larger (full-region intermediate results, repeated passes over
// the geometry), matching the paper's measured ordering
// ACE < Partlist < Cifplot.
package cifplot

import (
	"fmt"
	"sort"

	"ace/internal/build"
	"ace/internal/diag"
	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// Options configures extraction.
type Options struct {
	KeepGeometry bool
	Labels       []frontend.Label
}

// Counters reports work done.
type Counters struct {
	BoxesIn      int
	PairsChecked int64 // pairwise adjacency tests performed
	RegionRects  int   // rectangles in the derived material regions
}

// Result of an extraction.
type Result struct {
	Netlist  *netlist.Netlist
	Counters Counters

	// Diagnostics are the run's findings (unmatched-label and
	// label-conflict Warnings), attributed to stage "cifplot".
	Diagnostics []diag.Diagnostic
}

// stage attributes this extractor's findings.
const stage = "cifplot"

// ExtractBoxes runs the region-based extractor over a flat box list.
func ExtractBoxes(boxes []frontend.Box, opt Options) (*Result, error) {
	e := &engine{
		b: &build.Builder{KeepGeometry: opt.KeepGeometry, Stage: stage},
	}
	e.counters.BoxesIn = len(boxes)

	// Phase 1: gather per-layer geometry.
	var perLayer [tech.NumLayers][]geom.Rect
	for _, bx := range boxes {
		perLayer[bx.Layer] = append(perLayer[bx.Layer], bx.Rect)
	}

	// Phase 2: whole-chip region algebra. Everything is canonicalised
	// up front — the "build the full region, then look at it" style
	// that gives this extractor its large constants.
	diff := geom.Canonicalize(perLayer[tech.Diff])
	poly := geom.Canonicalize(perLayer[tech.Poly])
	metal := geom.Canonicalize(perLayer[tech.Metal])
	buried := geom.Canonicalize(perLayer[tech.Buried])
	implant := geom.Canonicalize(perLayer[tech.Implant])
	cuts := geom.Canonicalize(perLayer[tech.Cut])

	overlap := geom.IntersectRegions(diff, poly)
	channel := geom.SubtractRegions(overlap, buried)
	burCon := geom.IntersectRegions(overlap, buried)
	diffCond := geom.SubtractRegions(diff, channel)
	e.counters.RegionRects = len(diff) + len(poly) + len(metal) +
		len(channel) + len(diffCond)

	// Phase 3: connected components per conducting material.
	metalNets := e.components(metal, tech.Metal)
	polyNets := e.components(poly, tech.Poly)
	diffNets := e.components(diffCond, tech.Diff)

	// Phase 4: inter-layer connections.
	for _, c := range cuts {
		hit := false
		for i, r := range metal {
			if !r.Overlaps(c) {
				continue
			}
			for j, p := range poly {
				e.counters.PairsChecked++
				if p.Overlaps(c) && p.Overlaps(r.Intersect(c)) {
					e.b.UnionNets(metalNets[i], polyNets[j])
					hit = true
				}
			}
			for j, d := range diffCond {
				e.counters.PairsChecked++
				if d.Overlaps(c) && d.Overlaps(r.Intersect(c)) {
					e.b.UnionNets(metalNets[i], diffNets[j])
					hit = true
				}
			}
		}
		_ = hit
	}
	for _, bc := range burCon {
		for j, p := range poly {
			e.counters.PairsChecked++
			if !p.Overlaps(bc) {
				continue
			}
			for k, d := range diffCond {
				e.counters.PairsChecked++
				if d.Overlaps(bc.Intersect(p)) || geom.ContactLen(d, bc.Intersect(p)) > 0 {
					e.b.UnionNets(polyNets[j], diffNets[k])
				}
			}
		}
	}

	// Phase 5: devices from channel components.
	devOf := e.deviceComponents(channel)
	for i, ch := range channel {
		dv := devOf[i]
		e.b.AddChannel(dv, ch)
		for _, im := range implant {
			e.counters.PairsChecked++
			ov := ch.Intersect(im)
			if !ov.Empty() {
				e.b.AddImplant(dv, ov.Area())
			}
		}
		for j, p := range poly {
			e.counters.PairsChecked++
			if p.Overlaps(ch) {
				e.b.AddGate(dv, polyNets[j])
			}
		}
		for j, d := range diffCond {
			e.counters.PairsChecked++
			if l := geom.ContactLen(d, ch); l > 0 && !d.Overlaps(ch) {
				e.b.AddTerm(dv, diffNets[j], l)
			}
		}
	}

	// Phase 6: labels.
	e.labels(opt.Labels, metal, metalNets, poly, polyNets, diffCond, diffNets)

	nl, _ := e.b.Finish()
	return &Result{
		Netlist:     nl,
		Counters:    e.counters,
		Diagnostics: append(e.diags, e.b.Diagnostics()...),
	}, nil
}

// Extract drains a front-end stream and extracts it.
func Extract(src interface {
	Next() (frontend.Box, bool)
}, opt Options) (*Result, error) {
	var boxes []frontend.Box
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		boxes = append(boxes, b)
	}
	return ExtractBoxes(boxes, opt)
}

type engine struct {
	b        *build.Builder
	counters Counters
	diags    []diag.Diagnostic
}

// components assigns one net element per rectangle and unions
// rectangles that share positive boundary. Rectangles come from
// Canonicalize, so they are disjoint and sorted by (YMin, XMin); a
// bucket index over y-bands limits the pairing.
func (e *engine) components(rects []geom.Rect, layer tech.Layer) []int32 {
	ids := make([]int32, len(rects))
	order := make([]int, len(rects))
	for i := range order {
		order[i] = i
	}
	// Sort by YMin for a sweep over candidate pairs.
	sort.Slice(order, func(a, b int) bool {
		ra, rb := rects[order[a]], rects[order[b]]
		if ra.YMin != rb.YMin {
			return ra.YMin < rb.YMin
		}
		return ra.XMin < rb.XMin
	})
	for _, i := range order {
		ids[i] = e.b.NewNet(geom.Pt(rects[i].XMin, rects[i].YMax))
		e.b.BetterLoc(ids[i], geom.Pt(rects[i].XMin, rects[i].YMax))
		if e.b.KeepGeometry {
			e.b.AddNetGeometry(ids[i], layer, rects[i])
		}
	}
	for ai := 0; ai < len(order); ai++ {
		i := order[ai]
		for bi := ai + 1; bi < len(order); bi++ {
			j := order[bi]
			if rects[j].YMin > rects[i].YMax {
				break // sorted by YMin: nothing later can touch i
			}
			e.counters.PairsChecked++
			if geom.Connected(rects[i], rects[j]) {
				e.b.UnionNets(ids[i], ids[j])
			}
		}
	}
	return ids
}

// deviceComponents groups channel rectangles into devices.
func (e *engine) deviceComponents(rects []geom.Rect) []int32 {
	ids := make([]int32, len(rects))
	for i := range rects {
		ids[i] = e.b.NewDev()
	}
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			if rects[j].YMin > rects[i].YMax {
				break
			}
			e.counters.PairsChecked++
			if geom.Connected(rects[i], rects[j]) {
				e.b.UnionDevs(ids[i], ids[j])
			}
		}
	}
	return ids
}

func (e *engine) labels(labels []frontend.Label,
	metal []geom.Rect, metalNets []int32,
	poly []geom.Rect, polyNets []int32,
	diffC []geom.Rect, diffNets []int32) {
	find := func(rects []geom.Rect, ids []int32, p geom.Point) (int32, bool) {
		for i, r := range rects {
			if r.Contains(p) {
				return ids[i], true
			}
		}
		return 0, false
	}
	for _, lb := range labels {
		var id int32
		ok := false
		if lb.HasLayer {
			switch lb.Layer {
			case tech.Metal:
				id, ok = find(metal, metalNets, lb.At)
			case tech.Poly:
				id, ok = find(poly, polyNets, lb.At)
			case tech.Diff:
				id, ok = find(diffC, diffNets, lb.At)
			}
		} else {
			if id, ok = find(metal, metalNets, lb.At); !ok {
				if id, ok = find(poly, polyNets, lb.At); !ok {
					id, ok = find(diffC, diffNets, lb.At)
				}
			}
		}
		if !ok {
			e.diags = append(e.diags, diag.New(diag.Warning, stage, "unmatched-label",
				fmt.Sprintf("label %q at %v matches no conducting geometry", lb.Name, lb.At)))
			continue
		}
		e.b.NameNet(id, lb.Name)
	}
}
