package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"ace/internal/store"
)

// cached is one deterministic extraction outcome: the rendered
// wirelist, the rendered diagnostics report (nil when the run was
// silent) and whether the run was clean (ok) or carried
// Error-severity diagnostics (a 422 with salvage). Non-deterministic
// outcomes — timeouts, admission sheds, panics — are never cached.
type cached struct {
	ok       bool
	wirelist []byte
	diagJSON []byte
}

// flight is one in-progress computation of a cache key. The first
// requester becomes the owner and computes; concurrent requesters for
// the same key wait on done and share the outcome, so a burst of
// identical uploads costs one extraction (the leafcache single-flight
// pattern, lifted to whole files).
type flight struct {
	done chan struct{}
	res  *cached
	err  error
}

// resultCache is the whole-file content-addressed result cache: an
// in-memory single-flight layer over an optional persistent
// internal/store directory. Keys are SHA-256 over the upload bytes
// plus every option that can change the output, so identical uploads
// never re-extract — across concurrent requests (single-flight),
// across requests (disk), and across daemon restarts (disk).
type resultCache struct {
	mu       sync.Mutex
	inflight map[string]*flight
	disk     *store.Store // nil: memory single-flight only
}

func newResultCache(disk *store.Store) *resultCache {
	return &resultCache{inflight: map[string]*flight{}, disk: disk}
}

// resultKey derives the cache key for an upload. Everything besides
// the body that can change the response bytes is folded in: the
// budgets, leniency and the output part name. The version tag changes
// whenever the folded fields or what a run reports do (v3: the report
// holds the sweep's findings), so entries written by an older daemon
// miss instead of serving a stale response.
func resultKey(name string, lenient bool, l limitsFingerprint, body []byte) string {
	h := sha256.New()
	h.Write([]byte("ace-serve-result-v3\x00"))
	if lenient {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write([]byte(name))
	h.Write([]byte{0})
	var lf [8 * 3]byte
	binary.LittleEndian.PutUint64(lf[0:], uint64(l.maxBoxes))
	binary.LittleEndian.PutUint64(lf[8:], uint64(l.maxDepth))
	binary.LittleEndian.PutUint64(lf[16:], uint64(l.maxMemBytes))
	h.Write(lf[:])
	h.Write(body)
	return "r2:" + hex.EncodeToString(h.Sum(nil))
}

// limitsFingerprint is the subset of guard.Limits that affects an
// extraction's output and therefore the cache key.
type limitsFingerprint struct {
	maxBoxes, maxDepth, maxMemBytes int64
}

// lookup returns the flight for key and whether the caller owns it.
// Owners must call finish exactly once; non-owners wait on done.
func (c *resultCache) lookup(key string) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl, ok := c.inflight[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	return fl, true
}

// finish publishes the owner's outcome to every waiter and retires the
// flight; later requests for the key start fresh (and will hit disk
// when the outcome was cacheable).
func (c *resultCache) finish(key string, fl *flight, res *cached, err error) {
	fl.res, fl.err = res, err
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(fl.done)
}

// Disk payload layout (inside a verified store entry):
//
//	u8  version (cachedVersion)
//	u8  ok flag
//	u32 wirelist length, wirelist bytes
//	u32 diagnostics length, diagnostics JSON bytes
const cachedVersion = 1

func encodeCached(c *cached) []byte {
	out := make([]byte, 0, 2+8+len(c.wirelist)+len(c.diagJSON))
	okByte := byte(0)
	if c.ok {
		okByte = 1
	}
	out = append(out, cachedVersion, okByte)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(c.wirelist)))
	out = append(out, n[:]...)
	out = append(out, c.wirelist...)
	binary.LittleEndian.PutUint32(n[:], uint32(len(c.diagJSON)))
	out = append(out, n[:]...)
	out = append(out, c.diagJSON...)
	return out
}

func decodeCached(raw []byte) (*cached, bool) {
	if len(raw) < 2+4 || raw[0] != cachedVersion {
		return nil, false
	}
	c := &cached{ok: raw[1] == 1}
	rest := raw[2:]
	wlLen := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if wlLen < 0 || wlLen+4 > len(rest) {
		return nil, false
	}
	c.wirelist = append([]byte(nil), rest[:wlLen]...)
	rest = rest[wlLen:]
	diagLen := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if diagLen != len(rest) {
		return nil, false
	}
	if diagLen > 0 {
		c.diagJSON = append([]byte(nil), rest...)
	}
	return c, true
}

// getDisk reads a cached outcome from the persistent tier. A payload
// that verifies at the store layer but fails to decode (a schema
// change) is quarantined so it is never consulted again.
func (c *resultCache) getDisk(key string) (*cached, bool) {
	if c.disk == nil {
		return nil, false
	}
	raw, ok := c.disk.Get(key)
	if !ok {
		return nil, false
	}
	res, ok := decodeCached(raw)
	if !ok {
		c.disk.Quarantine(key)
		return nil, false
	}
	return res, true
}

// putDisk persists a deterministic outcome; errors are deliberately
// dropped — a failed write only costs a future recompute.
func (c *resultCache) putDisk(key string, res *cached) {
	if c.disk == nil {
		return
	}
	_ = c.disk.Put(key, encodeCached(res))
}

// diskStats reports the persistent tier's size (0, 0 without one).
func (c *resultCache) diskStats() (entries int, bytes int64) {
	if c.disk == nil {
		return 0, 0
	}
	return c.disk.Stats()
}

// diskIO reports the persistent tier's I/O error counters (zero
// without one).
func (c *resultCache) diskIO() store.IOCounters {
	if c.disk == nil {
		return store.IOCounters{}
	}
	return c.disk.IOCounters()
}
