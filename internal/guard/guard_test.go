package guard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRunConvertsPanic(t *testing.T) {
	err := Run(StageSweep, func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Stage != StageSweep {
		t.Fatalf("stage %q, want %q", pe.Stage, StageSweep)
	}
	if pe.Value != "boom" {
		t.Fatalf("value %v, want boom", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "guard_test.go") {
		t.Fatalf("stack does not point at the panic site:\n%s", pe.Stack)
	}
}

func TestRunPassesErrorThrough(t *testing.T) {
	want := errors.New("plain failure")
	if err := Run(StageSweep, func() error { return want }); err != want {
		t.Fatalf("got %v, want %v", err, want)
	}
	if err := Run(StageSweep, func() error { return nil }); err != nil {
		t.Fatalf("got %v, want nil", err)
	}
}

func TestAbortUnwindsToOriginalError(t *testing.T) {
	want := &StageError{Stage: StageHextFlatten, Err: context.Canceled}
	err := Run(StageHextLeaf, func() error {
		// Abort from deep inside: Recover must restore the original
		// error, not wrap it in a PanicError.
		Abort(want)
		return nil
	})
	if err != want {
		t.Fatalf("got %v, want the aborted error", err)
	}
}

func TestRecoverKeepsExistingError(t *testing.T) {
	want := errors.New("first failure wins")
	var err error
	func() {
		defer Recover(StageSweep, &err)
		err = want
		panic("late panic")
	}()
	if err != want {
		t.Fatalf("got %v, want %v", err, want)
	}
}

func TestCtx(t *testing.T) {
	if err := Ctx(nil, StageSweep); err != nil {
		t.Fatalf("nil ctx errored: %v", err)
	}
	if err := Ctx(context.Background(), StageSweep); err != nil {
		t.Fatalf("live ctx errored: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Ctx(ctx, StageSweep)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled through the wrapper", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageSweep {
		t.Fatalf("got %v, want *StageError at %q", err, StageSweep)
	}
}

func TestLimitsZeroValueUnlimited(t *testing.T) {
	var l Limits
	if err := l.CheckBoxes(StageSweep, 1<<50); err != nil {
		t.Fatalf("zero-value MaxBoxes tripped: %v", err)
	}
	if err := l.CheckMem(StageFrontend, 1<<50); err != nil {
		t.Fatalf("zero-value MaxMemBytes tripped: %v", err)
	}
	if l.Depth() != DefaultMaxDepth {
		t.Fatalf("Depth() = %d, want default %d", l.Depth(), DefaultMaxDepth)
	}
}

func TestLimitsExceeded(t *testing.T) {
	l := Limits{MaxBoxes: 10, MaxDepth: 5, MaxMemBytes: 30}
	if err := l.CheckBoxes(StageSweep, 10); err != nil {
		t.Fatalf("at the limit must pass: %v", err)
	}
	err := l.CheckBoxes(StageSweep, 11)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("got %v, want *LimitError", err)
	}
	if le.Stage != StageSweep || le.What != "boxes" || le.Value != 11 || le.Limit != 10 {
		t.Fatalf("bad fields: %+v", le)
	}
	if err := l.CheckMem(StageSweep, 31); !errors.As(err, &le) || le.What != "memory bytes" {
		t.Fatalf("mem: got %v", err)
	}
	if l.Depth() != 5 {
		t.Fatalf("Depth() = %d, want 5", l.Depth())
	}
}

func TestInjectNoInjector(t *testing.T) {
	restore := SetInjector(nil)
	defer restore()
	for _, s := range Stages {
		if err := Inject(s); err != nil {
			t.Fatalf("stage %s errored with no injector: %v", s, err)
		}
	}
}

func TestFailpointSkipAndCounts(t *testing.T) {
	fp := &Failpoint{Stage: StageSweep, Kind: FaultError, Skip: 2}
	restore := SetInjector(fp)
	defer restore()

	if err := Inject(StageTileRead); err != nil {
		t.Fatalf("other stage fired: %v", err)
	}
	if err := Inject(StageSweep); err != nil {
		t.Fatalf("hit 1 fired despite Skip=2: %v", err)
	}
	if err := Inject(StageSweep); err != nil {
		t.Fatalf("hit 2 fired despite Skip=2: %v", err)
	}
	err := Inject(StageSweep)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("hit 3: got %v, want ErrInjected", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageSweep {
		t.Fatalf("injected error not stage-attributed: %v", err)
	}
	if fp.Hits() != 3 || fp.Fired() != 1 {
		t.Fatalf("hits=%d fired=%d, want 3/1", fp.Hits(), fp.Fired())
	}
}

func TestFailpointPanicKind(t *testing.T) {
	fp := &Failpoint{Stage: StageSweep, Kind: FaultPanic}
	restore := SetInjector(fp)
	defer restore()

	err := Run(StageSweep, func() error { return Inject(StageSweep) })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Stage != StageSweep {
		t.Fatalf("got %v, want *PanicError at %q", err, StageSweep)
	}
}

func TestFailpointDelayKind(t *testing.T) {
	fp := &Failpoint{Stage: StageSweep, Kind: FaultDelay, Delay: 20 * time.Millisecond}
	restore := SetInjector(fp)
	defer restore()

	t0 := time.Now()
	if err := Inject(StageSweep); err != nil {
		t.Fatalf("delay kind errored: %v", err)
	}
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("slept %v, want >= 20ms", d)
	}
}

func TestSetInjectorRestore(t *testing.T) {
	a := &Failpoint{Stage: StageSweep, Kind: FaultError}
	restoreA := SetInjector(a)
	b := &Failpoint{Stage: StageSweep, Kind: FaultError, Skip: 1 << 30}
	restoreB := SetInjector(b)
	if err := Inject(StageSweep); err != nil {
		t.Fatalf("b should not fire: %v", err)
	}
	restoreB()
	if err := Inject(StageSweep); err == nil {
		t.Fatal("a restored but did not fire")
	}
	restoreA()
	if err := Inject(StageSweep); err != nil {
		t.Fatalf("injector not cleared: %v", err)
	}
}
