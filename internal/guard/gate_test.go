package guard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateTryAcquireShedsAtCap(t *testing.T) {
	g := NewGate(2)
	if err := g.TryAcquire(StageAdmit); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := g.TryAcquire(StageAdmit); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	err := g.TryAcquire(StageAdmit)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("over-cap acquire: got %v, want *LimitError", err)
	}
	if le.What != WhatConcurrent || le.Limit != 2 || le.Stage != StageAdmit {
		t.Fatalf("limit error fields: %+v", le)
	}
	if got := g.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	g.Release()
	if err := g.TryAcquire(StageAdmit); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestGateAcquireWaitsForRelease(t *testing.T) {
	g := NewGate(1)
	if err := g.TryAcquire(StageAdmit); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- g.Acquire(context.Background(), StageAdmit) }()
	select {
	case err := <-acquired:
		t.Fatalf("Acquire returned %v before a token freed", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.Release()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("Acquire after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Acquire did not observe the release")
	}
}

func TestGateAcquireHonorsContext(t *testing.T) {
	g := NewGate(1)
	if err := g.TryAcquire(StageAdmit); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := g.Acquire(ctx, StageAdmit)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire under expired ctx: %v", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageAdmit {
		t.Fatalf("error not stage-attributed: %v", err)
	}
	// A pre-cancelled context must never admit, even with a free slot.
	g.Release()
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if err := g.Acquire(cctx, StageAdmit); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Acquire: %v", err)
	}
	if got := g.InFlight(); got != 0 {
		t.Fatalf("cancelled acquires leaked tokens: InFlight = %d", got)
	}
}

func TestGateUnlimitedCountsOnly(t *testing.T) {
	for _, g := range []*Gate{nil, NewGate(0), NewGate(-3)} {
		for i := 0; i < 10; i++ {
			if err := g.TryAcquire(StageAdmit); err != nil {
				t.Fatalf("unlimited gate rejected: %v", err)
			}
		}
		if g != nil {
			if got := g.InFlight(); got != 10 {
				t.Fatalf("unlimited InFlight = %d, want 10", got)
			}
		}
		for i := 0; i < 12; i++ { // over-release must not go negative
			g.Release()
		}
		if got := g.InFlight(); got != 0 {
			t.Fatalf("unlimited InFlight after release = %d, want 0", got)
		}
	}
}

func TestGateConcurrentNeverExceedsCap(t *testing.T) {
	const cap = 4
	g := NewGate(cap)
	var inFlight, peak, admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := g.Acquire(context.Background(), StageAdmit); err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				admitted.Add(1)
				inFlight.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Fatalf("peak concurrency %d exceeded cap %d", p, cap)
	}
	if a := admitted.Load(); a != 64*50 {
		t.Fatalf("admitted %d, want %d", a, 64*50)
	}
	if got := g.InFlight(); got != 0 {
		t.Fatalf("tokens leaked: InFlight = %d", got)
	}
}
