package hext

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ace/internal/gen"
	"ace/internal/guard"
)

// hextFaultStages are the injection points the hierarchical extractor
// reaches: the window-subdivision front end, the leaf sweeps, the
// composes and the final DAG flatten.
var hextFaultStages = []string{
	guard.StageHextPlan, guard.StageHextLeaf, guard.StageHextCompose, guard.StageHextFlatten,
}

func hextCheckFault(t *testing.T, err error, stage string, kind guard.FaultKind) {
	t.Helper()
	if err == nil {
		t.Fatalf("stage %s: extraction succeeded, want a typed error", stage)
	}
	if kind == guard.FaultPanic {
		var pe *guard.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("stage %s: got %v (%T), want *guard.PanicError", stage, err, err)
		}
		if pe.Stage != stage {
			t.Fatalf("panic attributed to %q, want %q", pe.Stage, stage)
		}
		return
	}
	if !errors.Is(err, guard.ErrInjected) {
		t.Fatalf("stage %s: got %v, want ErrInjected through the wrapper", stage, err)
	}
	var se *guard.StageError
	if !errors.As(err, &se) || se.Stage != stage {
		t.Fatalf("stage %s: error %v not stage-attributed", stage, err)
	}
}

// TestHextFaultMatrix injects errors and panics into every stage of
// the hierarchical extractor, asserting stage-attributed typed errors
// and no goroutine left behind. The subtests keep their w1/ prefix:
// w1 names the one serial back end.
func TestHextFaultMatrix(t *testing.T) {
	w := gen.SquareArray(64)
	for _, stage := range hextFaultStages {
		for _, kind := range []guard.FaultKind{guard.FaultError, guard.FaultPanic} {
			k := "error"
			if kind == guard.FaultPanic {
				k = "panic"
			}
			name := fmt.Sprintf("w1/%s/%s", strings.ReplaceAll(stage, "/", "."), k)
			t.Run(name, func(t *testing.T) {
				fp := &guard.Failpoint{Stage: stage, Kind: kind}
				restore := guard.SetInjector(fp)
				defer restore()
				base := runtime.NumGoroutine()

				res, err := Extract(w.File, Options{})
				if res != nil {
					t.Fatalf("got a result alongside the failure")
				}
				hextCheckFault(t, err, stage, kind)
				if fp.Fired() == 0 {
					t.Fatalf("failpoint at %s never fired", stage)
				}
				restore()
				if n, ok := guard.WaitGoroutines(base+2, 5*time.Second); !ok {
					t.Fatalf("goroutines leaked: %d still running, base %d", n, base)
				}
			})
		}
	}
}

// TestHextCancel: a cancelled context aborts both the DAG walk and the
// recursive flatten with an error satisfying errors.Is(context.Canceled).
// As in TestHextFaultMatrix, the w1 subtest names the serial back end.
func TestHextCancel(t *testing.T) {
	w := gen.SquareArray(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t.Run("w1", func(t *testing.T) {
		base := runtime.NumGoroutine()
		t0 := time.Now()
		_, err := NewSession(Options{}).ExtractContext(ctx, w.File)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		if d := time.Since(t0); d > 10*time.Second {
			t.Fatalf("cancellation took %v", d)
		}
		if n, ok := guard.WaitGoroutines(base+2, 5*time.Second); !ok {
			t.Fatalf("goroutines leaked: %d still running, base %d", n, base)
		}
	})
}

// TestHextFaultFreeMatchesBaseline: with a live (never-cancelled)
// context the hierarchical result is identical to the plain entry
// point's — the guard checks are no-ops on the happy path.
func TestHextFaultFreeMatchesBaseline(t *testing.T) {
	w := gen.SquareArray(16)
	want, err := Extract(w.File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSession(Options{}).ExtractContext(context.Background(), w.File)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := flatWirelist(t, got), flatWirelist(t, want); a != b {
		t.Fatal("guarded run's wirelist differs from the plain entry point's")
	}
}
