package extract

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ace/internal/cif"
	"ace/internal/diag"
	"ace/internal/gen"
	"ace/internal/wirelist"
)

// wirelistBytes extracts src and renders the flat wirelist.
func wirelistBytes(t *testing.T, name, src string, opt Options) []byte {
	t.Helper()
	res, err := unpooled.CIF(nil, []byte(src), opt)
	if err != nil {
		t.Fatalf("%s: %+v: %v", name, opt, err)
	}
	var buf bytes.Buffer
	if err := wirelist.Write(&buf, res.Netlist, wirelist.Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLenientCleanByteIdentical locks the lenient contract: on clean
// input, lenient extraction is byte-identical to strict and reports
// the same diagnostics, none of them an Error. (Clean input can still
// carry Warnings: labels.cif's GHOST label names no net.)
func TestLenientCleanByteIdentical(t *testing.T) {
	srcs := map[string]string{}
	for _, c := range corpus {
		data, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		srcs[c.file] = string(data)
	}
	for _, c := range gen.Chips {
		w := c.Build(0.02)
		srcs[w.Name] = cif.String(w.File)
	}
	for name, src := range srcs {
		strictOut := wirelistBytes(t, name, src, Options{})
		strict, err := unpooled.CIF(nil, []byte(src), Options{})
		if err != nil {
			t.Fatalf("%s: strict: %v", name, err)
		}
		res, err := unpooled.CIF(nil, []byte(src), Options{Lenient: true})
		if err != nil {
			t.Fatalf("%s: lenient: %v", name, err)
		}
		if got, want := res.Diagnostics.All(), strict.Diagnostics.All(); !slices.Equal(got, want) ||
			res.Diagnostics.Errors() != 0 {
			t.Fatalf("%s: clean input: lenient diagnostics %v, strict %v", name, got, want)
		}
		var buf bytes.Buffer
		if err := wirelist.Write(&buf, res.Netlist, wirelist.Options{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(strictOut, buf.Bytes()) {
			t.Fatalf("%s: lenient wirelist differs from strict", name)
		}
	}
}

// malformedCorpus returns the cif package's malformed corpus files.
func malformedCorpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "cif", "testdata", "malformed", "*.cif"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty malformed corpus")
	}
	return files
}

// TestLenientMalformedSalvage runs the malformed corpus through the
// full lenient pipeline: extraction must succeed, return a
// deterministically ordered diagnostics set with sane spans, and still
// produce a writable wirelist. Strict extraction must fail whenever
// the set holds an Error-severity diagnostic.
func TestLenientMalformedSalvage(t *testing.T) {
	for _, path := range malformedCorpus(t) {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			res, err := unpooled.CIF(nil, []byte(src), Options{Lenient: true})
			if err != nil {
				t.Fatalf("lenient extraction aborted: %v", err)
			}
			ds := res.Diagnostics.All()
			if len(ds) == 0 {
				t.Fatal("no diagnostics on malformed input")
			}
			for i := 1; i < len(ds); i++ {
				if diag.Less(ds[i], ds[i-1]) {
					t.Fatalf("diagnostics out of order at %d: %v after %v", i, ds[i], ds[i-1])
				}
			}
			for _, d := range ds {
				if d.Span.Located() && (d.Span.Line < 1 || d.Span.Col < 1) {
					t.Fatalf("located diagnostic with bad span: %+v", d)
				}
			}
			var buf bytes.Buffer
			if err := wirelist.Write(&buf, res.Netlist, wirelist.Options{}); err != nil {
				t.Fatalf("salvaged wirelist does not render: %v", err)
			}

			_, strictErr := unpooled.CIF(nil, []byte(src), Options{})
			if res.Diagnostics.Errors() > 0 && strictErr == nil {
				t.Fatal("strict extraction succeeded despite error diagnostics")
			}
			if res.Diagnostics.Errors() == 0 && strictErr != nil {
				t.Fatalf("strict extraction failed on warning-only input: %v", strictErr)
			}
		})
	}
}
