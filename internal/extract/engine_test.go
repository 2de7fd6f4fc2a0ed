package extract

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"ace/internal/cif"
	"ace/internal/gen"
	"ace/internal/tile"
	"ace/internal/wirelist"
)

// unpooled is the nil Engine: it never pools, so every call builds its
// scratch afresh, as the package-level File, Tiles and TileWindow do.
var unpooled *Engine

// TestEngineByteIdentical reuses one Engine across the corpus, on CIF
// and on tiles, and demands the warm wirelist equal the cold one bit
// for bit at every reuse count — the contract that makes pooling safe
// to deploy: a daemon's thousandth extraction is indistinguishable from
// a fresh process's first. The sw=4 rows read tiles: each input is
// packed once and re-extracted through the Engine's tile arena and
// pipe.
func TestEngineByteIdentical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.cif"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	type input struct {
		name string
		src  []byte
	}
	var inputs []input
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(p), src})
	}
	inputs = append(inputs, input{"cherry", []byte(cif.String(gen.MustBenchChip("cherry").File))})
	for _, in := range inputs {
		cold, err := unpooled.CIF(nil, in.src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		baseline := wirelist.Format(cold.Netlist, wirelist.Options{})
		f, err := cif.ParseBytes(in.src)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		r := packFile(t, f, 4, 4)

		// The fw=0 level names the heap front end (no pre-flatten
		// workers), and sw=4 the tile leg, which swept four bands before
		// the tiles had one serial sweep; both stay so these subtests
		// keep their long-standing names.
		for _, sw := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/fw=0/sw=%d", in.name, sw), func(t *testing.T) {
				eng := NewEngine()
				for reuse := 0; reuse < 3; reuse++ {
					var res *Result
					var err error
					if sw == 0 {
						res, err = eng.CIF(nil, in.src, Options{})
					} else {
						res, err = eng.Tiles(nil, r, Options{})
					}
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
		res, err := eng.File(nil, w.File, opt)
		if err != nil {
			t.Fatalf("reuse %d: %v", reuse, err)
		}
		if got := wirelist.Format(res.Netlist, wirelist.Options{Geometry: true}); got != baseline {
			t.Fatalf("reuse %d: warm geometry output diverged", reuse)
		}
	}
}

// TestEngineConcurrent hammers one Engine from several goroutines:
// four extract a tile file through the Engine's tile arena and pooled
// pipe, and four run the row's input on the CIF path with its pooled
// front-end pipe, profiled; run under -race this is the
// proof that the pools are mutex-clean and concurrent extractions draw
// disjoint scratch. The shared-file row has every CIF goroutine extract
// one parsed File that carries parser and sweep warnings: each Result
// must own its Diagnostics, so a write to one reaches neither the File
// nor another Result.
func TestEngineConcurrent(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "polygons.cif"))
	if err != nil {
		t.Fatal(err)
	}
	labels, err := os.ReadFile(filepath.Join("testdata", "labels.cif"))
	if err != nil {
		t.Fatal(err)
	}
	// Three DD commands leave the parser's diagnostics slice with spare
	// capacity (len 3, cap 4); the GHOST label adds a sweep warning.
	shared, err := cif.ParseBytes(append([]byte("DD 1;\nDD 2;\nDD 3;\n"), labels...))
	if err != nil {
		t.Fatal(err)
	}
	parsed := slices.Clone(shared.Diagnostics.All())
	if n := len(parsed); n != 3 || cap(shared.Diagnostics.All()) == n {
		t.Fatalf("fixture: %d parser diagnostics, capacity %d; want 3 with spare capacity",
			n, cap(shared.Diagnostics.All()))
	}
	// The tile goroutines each get their own Reader: a Reader takes its
	// Engine's tile arena unsynchronised.
	tileDesign := faultDesign()
	tileBaseline := formatWirelist(t, "statistical", tileDesign, Options{})
	rows := []struct {
		name string
		run  func(eng *Engine, opt Options) (*Result, error)
	}{
		{"cif", func(eng *Engine, opt Options) (*Result, error) { return eng.CIF(nil, src, opt) }},
		{"shared-file", func(eng *Engine, opt Options) (*Result, error) { return eng.File(nil, shared, opt) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cold, err := row.run(unpooled, Options{})
			if err != nil {
				t.Fatal(err)
			}
			baseline := wirelist.Format(cold.Netlist, wirelist.Options{})
			diags := slices.Clone(cold.Diagnostics.All())

			eng := NewEngine()
			readers := make([]*tile.Reader, 4)
			for g := range readers {
				readers[g] = packFile(t, tileDesign, 4, 4)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8*5)
			last := make([]*Result, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						var res *Result
						var err error
						want := baseline
						if g < 4 {
							res, err = eng.Tiles(nil, readers[g], Options{})
							want = tileBaseline
						} else {
							res, err = row.run(eng, Options{})
						}
						if err != nil {
							errs <- err
							return
						}
						out, err := wirelist.AppendTo(eng.GetOutBuf(), res.Netlist, wirelist.Options{})
						if err != nil {
							errs <- err
							return
						}
						if string(out) != want {
							errs <- fmt.Errorf("goroutine %d iter %d: output diverged", g, i)
						}
						eng.PutOutBuf(out)
						last[g] = res
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			// Each CIF Result owns its Diagnostics: a write to one must
			// show neither in the next goroutine's nor in the File's.
			for g := 4; g < 8; g++ {
				got := last[g].Diagnostics.All()
				if !slices.Equal(got, diags) {
					t.Fatalf("goroutine %d: diagnostics %v, want %v", g, got, diags)
				}
				if n := len(got); n > 0 {
					got[n-1].Message = "overwritten"
				}
			}
			if got := shared.Diagnostics.All(); !slices.Equal(got, parsed) {
				t.Fatalf("the shared File's diagnostics changed: %v, want %v", got, parsed)
			}
		})
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
		if _, err := eng.File(nil, w.File, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.File(nil, w.File, Options{}); err != nil {
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
