package guard

import (
	"errors"
	"sync/atomic"
	"time"
)

// Injector is the fault-injection hook. The pipeline calls Inject at
// the entry of every stage and of every unit of its repeated work (a
// pipe chunk or tile row, a HEXT window, leaf sweep or compose); an
// installed Injector may return an error (injected error), panic
// (injected crash, exercising the recover wrappers) or sleep (injected
// delay, exercising cancellation) before returning nil.
//
// The hook is compiled behind this interface rather than build tags:
// with no injector installed, Inject is one atomic load and a branch,
// cheap enough to leave in production builds.
type Injector interface {
	Fire(stage string) error
}

// injector holds the installed Injector. An extra indirection because
// atomic.Pointer needs a concrete type.
type injectorBox struct{ in Injector }

var installed atomic.Pointer[injectorBox]

// SetInjector installs in as the process-wide fault injector and
// returns a function restoring the previous one. Tests install a
// *Failpoint, run the pipeline, then restore. Pass nil to clear.
func SetInjector(in Injector) (restore func()) {
	prev := installed.Load()
	if in == nil {
		installed.Store(nil)
	} else {
		installed.Store(&injectorBox{in: in})
	}
	return func() { installed.Store(prev) }
}

// Inject fires the installed injector for a stage. Injected errors
// come back wrapped in a *StageError carrying the stage; injected
// panics propagate to the caller's recover wrapper; with no injector
// installed it returns nil at the cost of one atomic load.
func Inject(stage string) error {
	box := installed.Load()
	if box == nil {
		return nil
	}
	if err := box.in.Fire(stage); err != nil {
		return &StageError{Stage: stage, Err: err}
	}
	return nil
}

// ErrInjected is the error a Failpoint in FaultError mode returns.
var ErrInjected = errors.New("injected fault")

// FaultKind selects what a Failpoint does when it fires.
type FaultKind int

const (
	// FaultError makes the stage return ErrInjected.
	FaultError FaultKind = iota
	// FaultPanic panics with ErrInjected, exercising panic isolation.
	FaultPanic
	// FaultDelay sleeps for Delay, exercising cancellation latency.
	FaultDelay
)

// Failpoint is a deterministic Injector for tests: it fires Kind at
// the Skip+1'th call reaching Stage and counts every hit. All methods
// are safe for concurrent use — stages fire from many goroutines.
type Failpoint struct {
	Stage string
	Kind  FaultKind
	Delay time.Duration // FaultDelay sleep
	Skip  int64         // hits at Stage to let pass before firing

	hits  atomic.Int64 // calls that reached Stage
	fired atomic.Int64 // calls that actually fired
}

// Fire implements Injector.
func (f *Failpoint) Fire(stage string) error {
	if stage != f.Stage {
		return nil
	}
	if f.hits.Add(1) <= f.Skip {
		return nil
	}
	f.fired.Add(1)
	switch f.Kind {
	case FaultPanic:
		panic(ErrInjected)
	case FaultDelay:
		time.Sleep(f.Delay)
		return nil
	default:
		return ErrInjected
	}
}

// Hits reports how many calls reached the failpoint's stage.
func (f *Failpoint) Hits() int64 { return f.hits.Load() }

// Fired reports how many calls actually fired.
func (f *Failpoint) Fired() int64 { return f.fired.Load() }
