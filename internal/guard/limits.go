package guard

import "fmt"

// Limits are the pipeline's resource budgets. The zero value of every
// field means "unlimited" except MaxDepth, whose effective default is
// DefaultMaxDepth — an unbounded call hierarchy is never legitimate
// (the CIF parser rejects cycles, but the front end also accepts
// synthesised symbol tables and must terminate on its own).
//
// The budgets are enforced where the memory is actually committed:
//
//   - MaxBoxes caps geometry items accepted by the CIF parser and
//     boxes entering a scanline sweep (Counters.BoxesIn), so a lazily
//     instantiated bomb fails during the sweep, not after OOM.
//   - MaxDepth bounds the call-hierarchy depth in the front end.
//   - MaxMemBytes is an approximate budget on retained pipeline
//     memory: the front end's pending heap (plus the labels it forces
//     up front), counted by the front end, the pipe producer and the
//     sweep, plus the boxes in flight in the pipe and the sweep's
//     active lists.
type Limits struct {
	MaxBoxes    int64
	MaxDepth    int
	MaxMemBytes int64
}

// DefaultMaxDepth is the call-hierarchy depth applied when
// Limits.MaxDepth is zero. Real designs run a few dozen levels;
// 100,000 is far beyond any legitimate hierarchy yet still terminates
// instantly, so the default only exists to reject cycles-by-another-
// name (hierarchies deep enough to be hostile) without a config knob.
const DefaultMaxDepth = 100000

// Depth returns the effective depth bound.
func (l Limits) Depth() int {
	if l.MaxDepth > 0 {
		return l.MaxDepth
	}
	return DefaultMaxDepth
}

// BoxBytes is the approximate retained size of one materialised box
// (layer + rect + padding) used by the MaxMemBytes accounting.
const BoxBytes = 40

// CheckBoxes reports a LimitError when n exceeds the MaxBoxes budget.
func (l Limits) CheckBoxes(stage string, n int64) error {
	if l.MaxBoxes > 0 && n > l.MaxBoxes {
		return &LimitError{Stage: stage, What: "boxes", Value: n, Limit: l.MaxBoxes}
	}
	return nil
}

// CheckMem reports a LimitError when approximately n retained bytes
// exceed the MaxMemBytes budget.
func (l Limits) CheckMem(stage string, n int64) error {
	if l.MaxMemBytes > 0 && n > l.MaxMemBytes {
		return &LimitError{Stage: stage, What: "memory bytes", Value: n, Limit: l.MaxMemBytes}
	}
	return nil
}

// LimitError reports an exceeded resource budget.
type LimitError struct {
	Stage string
	What  string
	Value int64
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("%s: %s limit exceeded: %d > %d", e.Stage, e.What, e.Value, e.Limit)
}
