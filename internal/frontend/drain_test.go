package frontend

import (
	"os"
	"path/filepath"
	"testing"

	"ace/internal/cif"
	"ace/internal/gen"
)

// corpusFiles loads every CIF file from the extract package's corpus.
func corpusFiles(t *testing.T) map[string]*cif.File {
	t.Helper()
	dir := filepath.Join("..", "extract", "testdata")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*cif.File{}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".cif" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := cif.ParseBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out[e.Name()] = f
	}
	if len(out) == 0 {
		t.Fatal("no corpus files found")
	}
	return out
}

// mirroredSrc exercises every transform family — identity, both
// mirrors, three rotations, and compositions — over a cell that mixes
// boxes with manhattanised polygons and wires, at two nesting levels
// so call transforms compose.
const mirroredSrc = `
DS 1 1 1;
L ND; B 40 20 30 20;
L NP; P 0 0 60 0 60 25 30 55 0 25;
L NM; W 8 0 0 50 50 90 50;
DF;
DS 2 1 1;
C 1;
C 1 M X T 300 0;
C 1 M Y T 0 280;
C 1 R 0 1 T 500 100;
C 1 R 0 -1 T 150 450;
C 1 R -1 0 T 700 600;
L ND; B 30 30 -40 -40;
DF;
DS 3 1 1;
C 2;
C 2 M X R 0 1 T 1900 1900;
C 2 M Y R 0 -1 T -800 900;
DF;
C 3;
C 3 T 4000 100 M Y;
E
`

// TestDrainMatchesNext is the Drain/Next property over the corpus, the
// generated chips (deep hierarchy, pseudo-random geometry) and the
// mirrored/rotated design: Drain yields exactly the sequence repeated
// Next calls would, NextTop always previews the box Next returns, and
// tops never rise.
func TestDrainMatchesNext(t *testing.T) {
	designs := corpusFiles(t)
	for _, w := range gen.BenchChips() {
		designs[w.Name] = w.File
	}
	designs["mesh"] = gen.Mesh(5).File
	designs["statistical"] = gen.Statistical(1500, 11).File
	mirrored, err := cif.ParseString(mirroredSrc)
	if err != nil {
		t.Fatal(err)
	}
	designs["mirrored"] = mirrored
	for name, f := range designs {
		s1, err := New(f, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s2, err := New(f, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		drained := s1.Drain()
		for i, want := range drained {
			if i > 0 && want.Rect.YMax > drained[i-1].Rect.YMax {
				t.Fatalf("%s: box %d top %d above previous top %d",
					name, i, want.Rect.YMax, drained[i-1].Rect.YMax)
			}
			if top, ok := s2.NextTop(); !ok || top != want.Rect.YMax {
				t.Fatalf("%s: NextTop at %d = (%d, %t), Drain saw top %d",
					name, i, top, ok, want.Rect.YMax)
			}
			got, ok := s2.Next()
			if !ok || got != want {
				t.Fatalf("%s: Next at %d = (%+v, %t), Drain saw %+v",
					name, i, got, ok, want)
			}
		}
		if b, ok := s2.Next(); ok {
			t.Fatalf("%s: Next yielded %+v past Drain's end", name, b)
		}
	}
}
