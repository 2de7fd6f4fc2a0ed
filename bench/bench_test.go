package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"ace/internal/frontend"
	"ace/internal/gen"
)

// binDir holds aced and cifpack, built once for the whole test run.
var binDir string

// TestMain doubles as the workload child: runWorkload re-executes the
// running binary with "child" as its first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	dir, err := os.MkdirTemp("", "acebench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "ace/cmd/aced", "ace/cmd/cifpack").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building aced and cifpack: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestWorkloadsQuick runs every workload at the quick preset, untraced
// and traced with one seed. Each run must check out with no failure and
// print every metric BENCHMARK.json names, with its unit; the two runs
// must agree on the job list and every output hash, which also shows
// that the traced pipelines produce the entry points' bytes. Nothing
// here asserts on a clock.
func TestWorkloadsQuick(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			work := t.TempDir()
			var digests []string
			for _, trace := range []bool{false, true} {
				o, err := runWorkload(runConfig{
					workload: w, seed: 1, seconds: 1, trace: trace, quick: true,
					work: work, bin: binDir, spans: filepath.Join(work, "spans.jsonl"),
				})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !o.res.Correct || o.res.Failed != 0 || o.res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d",
						trace, o.res.Correct, o.res.Attempted, o.res.Failed)
				}
				want := map[string]string{}
				if trace {
					for _, m := range sp.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range sp.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := o.res.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, name, got, unit)
					}
				}
				digests = append(digests, o.digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("untraced and traced runs of seed 1 differ: %s vs %s", digests[0], digests[1])
			}
			if _, err := os.Stat(filepath.Join(work, "spans.jsonl")); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
}

// TestGenerateDeterministic checks that inputs are a function of the
// seed: the same seed gives byte-identical manifests and CIF text, and
// serve-mix's schedule changes with the seed.
func TestGenerateDeterministic(t *testing.T) {
	generateOnce := func(w string, seed int64) ([]byte, []byte) {
		dir := t.TempDir()
		if _, err := generate(w, seed, 1, quickPreset, dir); err != nil {
			t.Fatal(err)
		}
		m, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, "designs.cif"))
		if err != nil {
			t.Fatal(err)
		}
		return m, blob
	}
	for _, w := range workloads {
		m1, b1 := generateOnce(w, 1)
		m2, b2 := generateOnce(w, 1)
		if !bytes.Equal(m1, m2) || !bytes.Equal(b1, b2) {
			t.Errorf("%s: seed 1 generated different inputs twice", w)
		}
	}
	m1, _ := generateOnce(serveMix, 1)
	m2, _ := generateOnce(serveMix, 2)
	if bytes.Equal(m1, m2) {
		t.Error("serve-mix: seeds 1 and 2 generated the same schedule")
	}
}

// TestFlatBoxesMatchesFrontEnd pins the throughput denominator: the
// memoised hierarchy count equals the boxes the front end delivers.
func TestFlatBoxesMatchesFrontEnd(t *testing.T) {
	designs := []gen.Workload{gen.Irregular(300, 7)}
	for _, c := range gen.Chips {
		designs = append(designs, c.Build(quickPreset.flatScale))
	}
	for _, w := range designs {
		s, err := frontend.New(w.File, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			n++
		}
		if got := flatBoxes(w.File); got != n {
			t.Errorf("%s: flatBoxes = %d, front end delivers %d", w.Name, got, n)
		}
	}
}

// TestMetricTablesMatchSpec keeps the code's metric tables and
// BENCHMARK.json in step, in both directions.
func TestMetricTablesMatchSpec(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range sp.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %v, code %v", layer, perLayer)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	around := func(c float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, c+float64(i%3)-1)
		}
		return xs
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		want           string
	}{
		{"faster", around(100), around(80), true, "improved"},
		{"slower", around(100), around(120), true, "worse"},
		{"same", around(100), around(100), true, "unchanged"},
		{"throughput up", around(100), around(120), false, "improved"},
		{"noisy", around(100), noisy, true, "unresolved"},
	} {
		if got := verdict(tc.parent, tc.change, tc.lowerBetter, 0.05); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
