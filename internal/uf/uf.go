// Package uf implements a growable union-find (disjoint-set) structure
// with path compression and union by size. The extractor uses it for
// net equivalence: two pieces of geometry found to be electrically
// connected have their net classes unioned; the class representative
// surviving at the end of the sweep becomes the net's identity.
package uf

// Forest32 is a union-find over dense int32 ids with path compression
// and union by size, kept in two flat int32 slices. Ids stay int32
// end-to-end on the builder's hot path (no int conversions), and the
// size array doubles as the class-cardinality table. The zero value is
// ready for use.
type Forest32 struct {
	parent []int32
	size   []int32
	sets   int
}

// Make allocates a fresh singleton set and returns its id.
func (f *Forest32) Make() int32 {
	id := int32(len(f.parent))
	f.parent = append(f.parent, id)
	f.size = append(f.size, 1)
	f.sets++
	return id
}

// Reserve grows the forest's capacity so the next n Makes (or one
// Grow(n)) allocate no memory. It never shrinks and never changes the
// forest's contents.
func (f *Forest32) Reserve(n int) {
	need := len(f.parent) + n
	if cap(f.parent) < need {
		parent := make([]int32, len(f.parent), need)
		copy(parent, f.parent)
		f.parent = parent
	}
	if cap(f.size) < need {
		size := make([]int32, len(f.size), need)
		copy(size, f.size)
		f.size = size
	}
}

// Grow allocates n fresh singletons at once and returns the first id.
func (f *Forest32) Grow(n int) int32 {
	first := int32(len(f.parent))
	for i := 0; i < n; i++ {
		f.parent = append(f.parent, first+int32(i))
		f.size = append(f.size, 1)
	}
	f.sets += n
	return first
}

// Len returns the number of ids allocated so far.
func (f *Forest32) Len() int { return len(f.parent) }

// Sets returns the number of distinct sets.
func (f *Forest32) Sets() int { return f.sets }

// Find returns the canonical representative of x's set.
func (f *Forest32) Find(x int32) int32 {
	root := x
	for f.parent[root] != root {
		root = f.parent[root]
	}
	for f.parent[x] != root {
		x, f.parent[x] = f.parent[x], root
	}
	return root
}

// Union merges the sets containing x and y and returns the surviving
// representative (the root of the larger class).
func (f *Forest32) Union(x, y int32) int32 {
	rx, ry := f.Find(x), f.Find(y)
	if rx == ry {
		return rx
	}
	if f.size[rx] < f.size[ry] {
		rx, ry = ry, rx
	}
	f.parent[ry] = rx
	f.size[rx] += f.size[ry]
	f.sets--
	return rx
}

// Same reports whether x and y are in the same set.
func (f *Forest32) Same(x, y int32) bool { return f.Find(x) == f.Find(y) }

// Reset restores the forest to the empty state, retaining capacity.
// The modified ACE used by the hierarchical extractor relies on cheap
// re-initialisation between windows (HEXT §3); Reset provides it.
func (f *Forest32) Reset() {
	f.parent = f.parent[:0]
	f.size = f.size[:0]
	f.sets = 0
}
