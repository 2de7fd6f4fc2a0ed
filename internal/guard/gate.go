package guard

import (
	"context"
	"sync/atomic"
)

// WhatConcurrent is the LimitError.What reported when an admission
// gate rejects work: the concurrency budget's name in the taxonomy,
// next to "boxes", "expanded boxes" and "memory bytes".
const WhatConcurrent = "concurrent requests"

// StageAdmit is the admission stage: the point where concurrent work
// is accepted or shed. Like StageCheck it is an attribution label, not
// a fault-injection point.
const StageAdmit = "admit"

// Gate is an admission-token semaphore: the concurrency half of the
// Limits taxonomy. At most max units of work hold a token at once;
// TryAcquire sheds excess load with a *LimitError (the same typed
// error the memory and box budgets produce, so callers classify all
// budget violations through one path) while Acquire queues until a
// token frees or the context expires.
//
// A nil *Gate, and a Gate built with max <= 0, admit everything and
// only count in-flight work. All methods are safe for concurrent use.
type Gate struct {
	max     int
	slots   chan struct{}
	unbound atomic.Int64 // in-flight count when slots == nil
}

// NewGate returns a gate admitting at most max concurrent holders;
// max <= 0 builds an unlimited, counting-only gate.
func NewGate(max int) *Gate {
	if max <= 0 {
		return &Gate{}
	}
	return &Gate{max: max, slots: make(chan struct{}, max)}
}

// TryAcquire takes a token without blocking. When the gate is full it
// reports a stage-attributed *LimitError (What == WhatConcurrent) and
// takes nothing.
func (g *Gate) TryAcquire(stage string) error {
	if g == nil || g.slots == nil {
		if g != nil {
			g.unbound.Add(1)
		}
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
		return &LimitError{
			Stage: stage,
			What:  WhatConcurrent,
			Value: int64(g.max) + 1,
			Limit: int64(g.max),
		}
	}
}

// Acquire takes a token, waiting for one to free when the gate is
// full. A cancelled or expired ctx ends the wait with a
// stage-attributed *StageError wrapping ctx.Err(); a nil ctx waits
// indefinitely.
func (g *Gate) Acquire(ctx context.Context, stage string) error {
	if g == nil || g.slots == nil {
		if g != nil {
			g.unbound.Add(1)
		}
		return nil
	}
	if ctx == nil {
		g.slots <- struct{}{}
		return nil
	}
	// Never block on a context that is already done: a full select
	// picks a ready case at random, which could admit past a deadline.
	if err := Ctx(ctx, stage); err != nil {
		return err
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &StageError{Stage: stage, Err: ctx.Err()}
	}
}

// Release returns a token taken by TryAcquire or Acquire. Releasing
// more than was acquired is a no-op, never a deadlock.
func (g *Gate) Release() {
	if g == nil {
		return
	}
	if g.slots == nil {
		// Counting-only: floor at zero so mismatched releases cannot
		// drive the gauge negative.
		for {
			n := g.unbound.Load()
			if n <= 0 {
				return
			}
			if g.unbound.CompareAndSwap(n, n-1) {
				return
			}
		}
	}
	select {
	case <-g.slots:
	default:
	}
}

// InFlight reports the number of tokens currently held.
func (g *Gate) InFlight() int {
	if g == nil {
		return 0
	}
	if g.slots == nil {
		return int(g.unbound.Load())
	}
	return len(g.slots)
}

// Max reports the gate's admission cap (0: unlimited).
func (g *Gate) Max() int {
	if g == nil {
		return 0
	}
	return g.max
}
