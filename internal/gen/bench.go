package gen

// Shared benchmark-workload definitions. Every benchmark harness in
// the root module — the root-level `go test -bench` files, the ingest
// benchmarks in internal/cif and internal/frontend, and acebomb's
// reference payload — builds its chips through these helpers so a
// workload tweak changes every baseline consistently.

import "fmt"

// BenchScale shrinks the Table 5-1/5-2 chips so a full benchmark run
// stays laptop-friendly. cmd/ace -table51 runs them at full size.
const BenchScale = 0.05

// BenchChip builds the named Table 5-1 chip at BenchScale. It returns
// an error on an unknown name so library callers can surface a typo
// instead of crashing; test and benchmark code uses MustBenchChip.
func BenchChip(name string) (Workload, error) {
	c, ok := ChipByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("gen: unknown benchmark chip %q", name)
	}
	return c.Build(BenchScale), nil
}

// MustBenchChip is BenchChip for tests and benchmarks, where an
// unknown name should fail loudly instead of silently measuring the
// wrong design.
func MustBenchChip(name string) Workload {
	w, err := BenchChip(name)
	if err != nil {
		panic(err)
	}
	return w
}

// BenchChips builds every Table 5-1 chip at BenchScale, in table
// order.
func BenchChips() []Workload {
	out := make([]Workload, len(Chips))
	for i, c := range Chips {
		out[i] = c.Build(BenchScale)
	}
	return out
}
