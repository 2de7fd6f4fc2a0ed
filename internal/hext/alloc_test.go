//go:build !race

// Excluded under -race: the race runtime adds its own allocations,
// which would distort the measured growth.

package hext

import (
	"runtime"
	"testing"

	"ace/internal/cif"
	"ace/internal/gen"
)

// TestExtractAllocsLinear pins HEXT's cost as linear in the chip,
// deterministically rather than by a timer: doubling a chip's scale
// must less than triple the bytes one serial Extract allocates. A
// flatten that regrows its arenas to exact size per leaf instance
// copies everything built before each instance, which allocates about
// 4x per doubling; with geometric growth it is about 2x.
func TestExtractAllocsLinear(t *testing.T) {
	const maxRatio = 3.0
	for _, name := range []string{"testram", "riscb"} {
		c, ok := gen.ChipByName(name)
		if !ok {
			t.Fatalf("no chip %s", name)
		}
		small := extractAllocBytes(t, c.Build(0.125).File)
		large := extractAllocBytes(t, c.Build(0.25).File)
		ratio := float64(large) / float64(small)
		t.Logf("%s: %.1f MB at scale 0.125, %.1f MB at 0.25 (%.2fx)", name, float64(small)/1e6, float64(large)/1e6, ratio)
		if ratio >= maxRatio {
			t.Errorf("%s: doubling the scale multiplies Extract's allocated bytes by %.2f (limit %.0f); HEXT has gone superlinear",
				name, ratio, maxRatio)
		}
	}
}

// extractAllocBytes returns the bytes one serial Extract of f allocates.
func extractAllocBytes(t *testing.T, f *cif.File) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Extract(f, Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
