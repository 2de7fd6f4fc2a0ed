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
		_, small := extractAllocs(t, c.Build(0.125).File)
		_, large := extractAllocs(t, c.Build(0.25).File)
		ratio := float64(large) / float64(small)
		t.Logf("%s: %.1f MB at scale 0.125, %.1f MB at 0.25 (%.2fx)", name, float64(small)/1e6, float64(large)/1e6, ratio)
		if ratio >= maxRatio {
			t.Errorf("%s: doubling the scale multiplies Extract's allocated bytes by %.2f (limit %.0f); HEXT has gone superlinear",
				name, ratio, maxRatio)
		}
	}
}

// TestExtractColdAllocBudget pins what one cold Extract allocates: a
// fresh Session, as every `ace -hier`, `hext` and
// ace.ExtractHierarchical call makes. Each budget sits just above the
// measured heap objects and bytes, so planning scratch that stops being
// reused, or a flatten that regrows its builder, fails it.
func TestExtractColdAllocBudget(t *testing.T) {
	budgets := []struct {
		chip           string
		objects, bytes uint64
	}{
		{"psc", 17_400, 11_000_000},
		{"riscb", 16_200, 10_900_000},
	}
	for _, b := range budgets {
		c, ok := gen.ChipByName(b.chip)
		if !ok {
			t.Fatalf("no chip %s", b.chip)
		}
		f := c.Build(0.25).File
		// The least of three runs: a stray runtime allocation can only
		// add to one.
		objects, bytes := extractAllocs(t, f)
		for i := 0; i < 2; i++ {
			o, by := extractAllocs(t, f)
			objects, bytes = min(objects, o), min(bytes, by)
		}
		t.Logf("%s at scale 0.25: %d objects, %.2f MB per cold Extract", b.chip, objects, float64(bytes)/1e6)
		if objects > b.objects || bytes > b.bytes {
			t.Errorf("%s: a cold Extract allocates %d objects and %d bytes, over its budget of %d and %d",
				b.chip, objects, bytes, b.objects, b.bytes)
		}
	}
}

// extractAllocs returns the heap objects and bytes one serial Extract of
// f allocates.
func extractAllocs(t *testing.T, f *cif.File) (objects, bytes uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Extract(f, Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
