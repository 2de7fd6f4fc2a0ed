package hext

import (
	"cmp"
	"slices"

	"ace/internal/geom"
	"ace/internal/uf"
)

// composeScratch is the run's scratch state for compose: seam edge
// lists, the dense union-finds over the two children's nets and
// partials, the export tables, and the lists a compose builds. Everything
// is reset (not reallocated) between calls, and each finished list is
// copied into the result at its exact size, so steady-state compose
// allocates only the result itself.
type composeScratch struct {
	sa, sb []edge

	netUF  uf.Forest32
	partUF uf.Forest32

	netExport  []int32 // dense element id -> parent export id, -1 unset
	partExport []int32

	netEquivs, partEquivs   [][2]ref
	partTerms               []partTerm
	parentNets, parentParts []ref
}

// exact copies a scratch list into a slice of its exact length (nil
// when empty).
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

func (s *composeScratch) resetNets(n int) {
	s.netUF.Reset()
	s.netUF.Reserve(n)
	s.netUF.Grow(n)
	s.netExport = resetExport(s.netExport, n)
}

func (s *composeScratch) resetParts(n int) {
	s.partUF.Reset()
	s.partUF.Reserve(n)
	s.partUF.Grow(n)
	s.partExport = resetExport(s.partExport, n)
}

func resetExport(e []int32, n int) []int32 {
	if cap(e) < n {
		e = make([]int32, n)
	} else {
		e = e[:n]
	}
	for i := range e {
		e[i] = -1
	}
	return e
}

// compose merges two windows that came from a guillotine cut: for
// axis 'x', a is the left child and b the right child placed at x=at;
// for axis 'y', b sits at y=at. Both children span the full extent of
// the parent along the cut, so the seam is a's entire R (or T) face
// against b's entire L (or B) face.
//
// The routine implements HEXT §3's three steps: find the touching
// boundary segments, establish signal equivalences element by element,
// and compute the new window's interface by copying the surviving
// segments (cost proportional to the parent's perimeter). It is a pure
// function of the two children plus the cut; the parent window is pw
// by ph.
func (e *env) compose(a, b *winResult, axis byte, at, pw, ph int64) *winResult {
	// The result and its compose record share one allocation.
	rc := &struct {
		winResult
		compData
	}{}
	r, c := &rc.winResult, &rc.compData
	*r = winResult{w: pw, h: ph, findings: a.findings || b.findings}
	c.kids = [2]*winResult{a, b}
	if axis == 'x' {
		c.at[1] = geom.Pt(at, 0)
	} else {
		c.at[1] = geom.Pt(0, at)
	}
	r.comp = c

	// Dense element ids over the two children: child 0's net i is
	// element i, child 1's net j is element a.netCount+j; likewise for
	// partials. The union-finds live in the run's scratch.
	s := &e.cs
	s.resetNets(a.netCount + b.netCount)
	s.resetParts(a.partCount + b.partCount)
	netEquivs, partEquivs, partTerms := s.netEquivs[:0], s.partEquivs[:0], s.partTerms[:0]
	parentNets, parentParts := s.parentNets[:0], s.parentParts[:0]
	netElem := func(rf ref) int32 {
		if rf.child == 0 {
			return rf.idx
		}
		return int32(a.netCount) + rf.idx
	}
	partElem := func(rf ref) int32 {
		if rf.child == 0 {
			return rf.idx
		}
		return int32(a.partCount) + rf.idx
	}
	netRef := func(elem int32) ref {
		if elem < int32(a.netCount) {
			return ref{0, elem}
		}
		return ref{1, elem - int32(a.netCount)}
	}
	partRef := func(elem int32) ref {
		if elem < int32(a.partCount) {
			return ref{0, elem}
		}
		return ref{1, elem - int32(a.partCount)}
	}

	var seamA, seamB face
	if axis == 'x' {
		seamA, seamB = faceR, faceL
	} else {
		seamA, seamB = faceT, faceB
	}

	// Step 1+2: match seam segments and establish equivalences. Both
	// sides' seam lists are sorted by lo and joined with a sweep, so
	// the cost is proportional to the seam contents plus the matches
	// ("step through the elements of the interface-segment lists").
	sa, sb := s.sa[:0], s.sb[:0]
	for _, eg := range a.edges {
		if eg.face == seamA {
			sa = append(sa, eg)
		}
	}
	for _, eg := range b.edges {
		if eg.face == seamB {
			sb = append(sb, eg)
		}
	}
	sortEdges(sa)
	sortEdges(sb)
	s.sa, s.sb = sa, sb
	start := 0
	for _, ea := range sa {
		for start < len(sb) && sb[start].hi <= ea.lo {
			start++
		}
		for j := start; j < len(sb) && sb[j].lo < ea.hi; j++ {
			eb := sb[j]
			lo := max64(ea.lo, eb.lo)
			hi := min64(ea.hi, eb.hi)
			if hi <= lo {
				continue
			}
			e.counters.SeamMatches++
			ra := ref{0, ea.ref}
			rb := ref{1, eb.ref}
			switch {
			case ea.layer == eChan && eb.layer == eChan:
				pa, pb := partElem(ra), partElem(rb)
				if s.partUF.Find(pa) != s.partUF.Find(pb) {
					s.partUF.Union(pa, pb)
					partEquivs = append(partEquivs, [2]ref{ra, rb})
				}
			case ea.layer == eChan && eb.layer == eDiff:
				partTerms = append(partTerms, partTerm{part: ra, net: rb, edge: hi - lo})
			case ea.layer == eDiff && eb.layer == eChan:
				partTerms = append(partTerms, partTerm{part: rb, net: ra, edge: hi - lo})
			case ea.layer == eb.layer: // conducting layer contact
				na, nb := netElem(ra), netElem(rb)
				if s.netUF.Find(na) != s.netUF.Find(nb) {
					s.netUF.Union(na, nb)
					netEquivs = append(netEquivs, [2]ref{ra, rb})
				}
			}
		}
	}

	// Step 3: the parent interface is the children's non-seam edges,
	// re-based into the parent frame and re-referenced through the
	// export tables.
	exportNet := func(rf ref) int32 {
		root := s.netUF.Find(netElem(rf))
		if id := s.netExport[root]; id >= 0 {
			return id
		}
		id := int32(len(parentNets))
		parentNets = append(parentNets, netRef(root))
		s.netExport[root] = id
		return id
	}
	exportPart := func(rf ref) int32 {
		root := s.partUF.Find(partElem(rf))
		if id := s.partExport[root]; id >= 0 {
			return id
		}
		id := int32(len(parentParts))
		parentParts = append(parentParts, partRef(root))
		s.partExport[root] = id
		return id
	}

	r.edges = make([]edge, 0, len(a.edges)+len(b.edges)-len(sa)-len(sb))
	copyEdges := func(child int8, src *winResult, skip face, dx, dy int64) {
		for _, eg := range src.edges {
			if eg.face == skip {
				continue
			}
			ne := eg
			switch eg.face {
			case faceB, faceT:
				ne.lo += dx
				ne.hi += dx
			case faceL, faceR:
				ne.lo += dy
				ne.hi += dy
			}
			if eg.layer == eChan {
				ne.ref = exportPart(ref{child, eg.ref})
			} else {
				ne.ref = exportNet(ref{child, eg.ref})
			}
			r.edges = append(r.edges, ne)
		}
	}
	copyEdges(0, a, seamA, 0, 0)
	copyEdges(1, b, seamB, c.at[1].X, c.at[1].Y)

	// Faces must be re-labelled: for a vertical cut the left child's R
	// face and the right child's L face were consumed; the remaining
	// edges keep their face identity, which is already correct in the
	// parent frame (a's L is the parent's L, b's R the parent's R,
	// and B/T merge). The same holds for horizontal cuts.

	c.netEquivs, c.partEquivs, c.partTerms = exact(netEquivs), exact(partEquivs), exact(partTerms)
	c.parentNets, c.parentParts = exact(parentNets), exact(parentParts)
	s.netEquivs, s.partEquivs, s.partTerms = netEquivs, partEquivs, partTerms
	s.parentNets, s.parentParts = parentNets, parentParts
	r.netCount = len(c.parentNets)
	r.partCount = len(c.parentParts)
	r.flat = composedCounts(c)
	return r
}

// sortEdges orders seam edges by lo. Edges with equal lo end in the
// order pdqsort leaves them in, and the compose's equivalence and export
// order, so the hierarchical wirelist bytes, follow it:
// TestSortEdgesMatchesSortSlice pins that permutation.
func sortEdges(es []edge) {
	slices.SortFunc(es, func(a, b edge) int { return cmp.Compare(a.lo, b.lo) })
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
