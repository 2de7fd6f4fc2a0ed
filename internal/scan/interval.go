package scan

// ival is a half-open x interval [x0, x1) carrying an id: a net
// union-find element for material intervals, a device element for
// channel intervals. Interval lists are kept sorted by x0 and
// pairwise disjoint (abutting intervals that belong to the same
// electrical region are merged when they are built).
type ival struct {
	x0, x1 int64
	id     int32
}

// xrange is an id-less interval used while computing material algebra.
type xrange struct {
	x0, x1 int64
}

// intersectRanges computes a ∩ b into out. Inputs are disjoint sorted
// lists; the result is disjoint and sorted.
func intersectRanges(a, b, out []xrange) []xrange {
	out = out[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max64(a[i].x0, b[j].x0)
		hi := min64(a[i].x1, b[j].x1)
		if lo < hi {
			out = append(out, xrange{lo, hi})
		}
		if a[i].x1 < b[j].x1 {
			i++
		} else {
			j++
		}
	}
	return out
}

// subtractRanges computes a − b into out. Inputs are disjoint sorted
// lists.
func subtractRanges(a, b, out []xrange) []xrange {
	out = out[:0]
	j := 0
	for _, r := range a {
		lo := r.x0
		for j < len(b) && b[j].x1 <= lo {
			j++
		}
		k := j
		for k < len(b) && b[k].x0 < r.x1 {
			if b[k].x0 > lo {
				out = append(out, xrange{lo, b[k].x0})
			}
			if b[k].x1 > lo {
				lo = b[k].x1
			}
			if b[k].x1 >= r.x1 {
				break
			}
			k++
		}
		if lo < r.x1 {
			out = append(out, xrange{lo, r.x1})
		}
	}
	return out
}

// overlapLen returns the length of the overlap of [a0,a1) and [b0,b1).
func overlapLen(a0, a1, b0, b1 int64) int64 {
	lo := max64(a0, b0)
	hi := min64(a1, b1)
	if hi > lo {
		return hi - lo
	}
	return 0
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
