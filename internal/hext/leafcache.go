package hext

import (
	"container/list"

	"ace/internal/netlist"
)

// defaultCacheWindows is the content-cache capacity (in cached sweeps)
// selected by Options.CacheSize == 0.
const defaultCacheWindows = 4096

// sweepEntry is one cached leaf sweep: the netlist of a window content
// in anchored coordinates, plus the sweep's warnings. Everything
// frame-dependent — interface edges, partial-transistor slots — is
// recomputed per window from the cached netlist, which costs O(kept
// geometry) instead of the sweep's O(n log n).
type sweepEntry struct {
	hash uint64
	key  string // full canonical content, for exact verification

	nl       *netlist.Netlist
	warnings []string
	boxes    int
	bytes    int64

	elem *list.Element // LRU position
}

// leafCache is the content-addressed window cache: leaf sweeps keyed
// by the translation-invariant hash of their canonical content, with
// LRU eviction by entry count.
type leafCache struct {
	maxEnt  int
	buckets map[uint64][]*sweepEntry // hash → entries (collisions verified by key)
	lru     list.List                // front = most recent
	bytes   int64
}

func newLeafCache(maxEntries int) *leafCache {
	if maxEntries <= 0 {
		maxEntries = defaultCacheWindows
	}
	return &leafCache{maxEnt: maxEntries, buckets: map[uint64][]*sweepEntry{}}
}

// lookup returns the cached sweep of the hashed content, or nil.
// Entries are verified against the full canonical key, so a 64-bit
// hash collision degrades into a second bucket entry, never into a
// wrong netlist.
func (c *leafCache) lookup(hash uint64, key string) *sweepEntry {
	for _, ent := range c.buckets[hash] {
		if ent.key == key {
			c.lru.MoveToFront(ent.elem)
			return ent
		}
	}
	return nil
}

// add caches a finished sweep as the most recent entry, evicting the
// least recent one beyond the capacity. Evicted netlists stay valid
// for the windows holding them; eviction only drops the cache's own
// references.
func (c *leafCache) add(hash uint64, key string, nl *netlist.Netlist, warnings []string, boxes int) {
	e := &sweepEntry{hash: hash, key: key, nl: nl, warnings: warnings, boxes: boxes}
	e.bytes = approxNetlistBytes(nl) + int64(len(key))
	c.buckets[hash] = append(c.buckets[hash], e)
	e.elem = c.lru.PushFront(e)
	c.bytes += e.bytes
	if c.lru.Len() > c.maxEnt {
		c.evict(c.lru.Back().Value.(*sweepEntry))
	}
}

func (c *leafCache) evict(v *sweepEntry) {
	c.lru.Remove(v.elem)
	bucket := c.buckets[v.hash]
	for i, ent := range bucket {
		if ent == v {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.buckets, v.hash)
	} else {
		c.buckets[v.hash] = bucket
	}
	c.bytes -= v.bytes
}

// approxNetlistBytes estimates the retained size of a cached netlist:
// struct headers plus the geometry, terminal and name payloads. It
// feeds the CacheBytes gauge and the eviction accounting; it does not
// need to be exact, only monotone in the real footprint.
func approxNetlistBytes(nl *netlist.Netlist) int64 {
	const (
		netHeader = 64
		devHeader = 136
		layerRect = 40
		termBytes = 24
		rectBytes = 32
	)
	b := int64(64)
	for i := range nl.Nets {
		n := &nl.Nets[i]
		b += netHeader + int64(len(n.Geometry))*layerRect
		for _, nm := range n.Names {
			b += 16 + int64(len(nm))
		}
	}
	for i := range nl.Devices {
		d := &nl.Devices[i]
		b += devHeader + int64(len(d.Terminals))*termBytes + int64(len(d.Geometry))*rectBytes
	}
	return b
}
