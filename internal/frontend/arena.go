package frontend

import (
	"sync"

	"ace/internal/geom"
	"ace/internal/guard"
)

// Arena owns the front end's reusable allocation state: lazy heap
// Streams (their key heaps, payload slabs, label lists and memo
// tables). A long-lived caller (extract.Engine) threads one Arena
// through Options.Arena so repeated instantiation of same-shaped
// workloads stops allocating.
//
// The Arena is a mutex-guarded free list, safe for concurrent use; a
// nil *Arena degrades to plain allocation everywhere, so call sites
// need no guards. Reuse is explicit: a Stream handed back with
// PutStream may be reissued at any time, so the caller must be done
// with everything it returned (extraction Results copy all they keep).
type Arena struct {
	mu      sync.Mutex
	streams []*Stream
}

// NewArena returns an empty Arena.
func NewArena() *Arena { return &Arena{} }

// getStream returns a reset Stream, pooled when available.
func (a *Arena) getStream() *Stream {
	if a == nil {
		return &Stream{bboxes: map[int]geom.Rect{}}
	}
	a.mu.Lock()
	var s *Stream
	if n := len(a.streams); n > 0 {
		s = a.streams[n-1]
		a.streams[n-1] = nil
		a.streams = a.streams[:n-1]
	}
	a.mu.Unlock()
	if s == nil {
		return &Stream{bboxes: map[int]geom.Rect{}}
	}
	s.reset()
	return s
}

// PutStream returns a consumed Stream's state to the arena. Every
// slice the Stream handed out (Labels, Drain results already belong to
// the caller) must be dead or copied; the next NewItems with this
// arena reuses the backing memory.
func (a *Arena) PutStream(s *Stream) {
	if a == nil || s == nil {
		return
	}
	a.mu.Lock()
	a.streams = append(a.streams, s)
	a.mu.Unlock()
}

// reset clears a pooled Stream for its next design, keeping capacity.
func (s *Stream) reset() {
	s.syms = nil
	s.grid = 0
	s.keepNG = false
	s.heap = s.heap[:0]
	s.boxes.reset()
	s.calls.reset()
	s.limits = guard.Limits{}
	s.err = nil
	s.labels = s.labels[:0]
	s.stats = Stats{}
	s.bbox = geom.Rect{}
	s.hasBB = false
	clear(s.bboxes)
	clear(s.labelMemo)
	clear(s.impureMemo)
	s.callSink = nil
	s.banned = nil
}
