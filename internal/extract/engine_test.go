package extract

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ace/internal/gen"
	"ace/internal/wirelist"
)

// TestEngineByteIdentical reuses one Engine across the corpus and the
// worker settings and demands the warm wirelist equal the cold one bit
// for bit at every reuse count — the contract that makes pooling safe
// to deploy: a daemon's thousandth extraction is indistinguishable from
// a fresh process's first.
func TestEngineByteIdentical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.cif"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		cold, err := String(text, Options{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		baseline := wirelist.Format(cold.Netlist, wirelist.Options{})

		// The fw=0 level names the heap front end (no pre-flatten
		// workers); it stays so these subtests keep their long-standing
		// names now that the heap is the only front end.
		for _, sw := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/fw=0/sw=%d", filepath.Base(p), sw), func(t *testing.T) {
				eng := NewEngine()
				for reuse := 0; reuse < 3; reuse++ {
					res, err := eng.String(text, Options{Workers: sw})
					if err != nil {
						t.Fatalf("reuse %d: %v", reuse, err)
					}
					out, err := wirelist.AppendTo(eng.GetOutBuf(), res.Netlist, wirelist.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if string(out) != baseline {
						t.Fatalf("reuse %d: warm output diverged from cold baseline", reuse)
					}
					eng.PutOutBuf(out)
				}
			})
		}
	}
}

// TestEngineByteIdenticalGeometry covers the KeepGeometry path, where
// builder geometry arenas see the heaviest reuse.
func TestEngineByteIdenticalGeometry(t *testing.T) {
	c, ok := gen.ChipByName("cherry")
	if !ok {
		t.Fatal("no cherry chip")
	}
	w := c.Build(0.05)
	opt := Options{KeepGeometry: true}
	cold, err := File(w.File, opt)
	if err != nil {
		t.Fatal(err)
	}
	baseline := wirelist.Format(cold.Netlist, wirelist.Options{Geometry: true})

	eng := NewEngine()
	for reuse := 0; reuse < 3; reuse++ {
		res, err := eng.File(w.File, opt)
		if err != nil {
			t.Fatalf("reuse %d: %v", reuse, err)
		}
		if got := wirelist.Format(res.Netlist, wirelist.Options{Geometry: true}); got != baseline {
			t.Fatalf("reuse %d: warm geometry output diverged", reuse)
		}
	}
}

// TestEngineConcurrent hammers one Engine from several goroutines;
// run under -race this is the proof that the pools are mutex-clean and
// concurrent extractions draw disjoint scratch.
func TestEngineConcurrent(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "polygons.cif"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	cold, err := String(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := wirelist.Format(cold.Netlist, wirelist.Options{})

	eng := NewEngine()
	var wg sync.WaitGroup
	errs := make(chan error, 4*5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := eng.String(text, Options{Workers: 2})
				if err != nil {
					errs <- err
					return
				}
				out, err := wirelist.AppendTo(eng.GetOutBuf(), res.Netlist, wirelist.Options{})
				if err != nil {
					errs <- err
					return
				}
				if string(out) != baseline {
					errs <- fmt.Errorf("goroutine %d iter %d: output diverged", g, i)
				}
				eng.PutOutBuf(out)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkWarmEngine is the CI bench-smoke target: steady-state
// extraction of a small synthetic chip through a warm Engine. Compare
// against BenchmarkColdExtract to see what the pools buy.
func BenchmarkWarmEngine(b *testing.B) {
	c, ok := gen.ChipByName("cherry")
	if !ok {
		b.Fatal("no cherry chip")
	}
	w := c.Build(0.05)
	eng := NewEngine()
	for i := 0; i < 2; i++ {
		if _, err := eng.File(w.File, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.File(w.File, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdExtract is the package-level comparison row for
// BenchmarkWarmEngine.
func BenchmarkColdExtract(b *testing.B) {
	c, ok := gen.ChipByName("cherry")
	if !ok {
		b.Fatal("no cherry chip")
	}
	w := c.Build(0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := File(w.File, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
