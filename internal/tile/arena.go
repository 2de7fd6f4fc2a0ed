package tile

import (
	"sync"

	"ace/internal/frontend"
)

// Arena pools the per-iterator decode scratch — the two row arenas
// and their merge heaps, the spanning-box list and the payload byte
// buffer — so a long-lived caller (extract.Engine, the hext daemon
// loop) re-reading the same file stops allocating per read. Attach
// one to a Reader with SetArena; every iterator the Reader opens then
// draws its scratch here and returns it when it exhausts cleanly or
// its caller releases it (failed iterators drop theirs — their arenas
// may be referenced by the error path).
//
// Safe for concurrent use; a nil *Arena degrades to per-iterator
// allocation.
type Arena struct {
	mu   sync.Mutex
	sets []iterScratch
}

type iterScratch struct {
	arenas [2][]frontend.Box
	runs   [2]runHeap
	span   []frontend.Box
	buf    []byte
}

// NewArena returns an empty Arena.
func NewArena() *Arena { return &Arena{} }

func (a *Arena) get() iterScratch {
	if a == nil {
		return iterScratch{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.sets); n > 0 {
		s := a.sets[n-1]
		a.sets[n-1] = iterScratch{}
		a.sets = a.sets[:n-1]
		return s
	}
	return iterScratch{}
}

func (a *Arena) put(s iterScratch) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.sets = append(a.sets, s)
	a.mu.Unlock()
}

// SetArena attaches a scratch pool to the Reader; subsequent iterators
// use it. Callers sharing one Reader across multiple pools must pick
// one — the field is not synchronised against concurrent SetArena.
func (r *Reader) SetArena(a *Arena) { r.pool = a }
