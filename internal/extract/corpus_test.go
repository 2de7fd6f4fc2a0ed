package extract

import (
	"os"
	"path/filepath"
	"testing"

	"ace/internal/cif"
	"ace/internal/cifplot"
	"ace/internal/frontend"
	"ace/internal/hext"
	"ace/internal/netlist"
)

// corpus lists the testdata CIF files with their expected extraction
// results; the counts were verified by hand against the drawings in
// each file's header comment.
var corpus = []struct {
	file     string
	devices  int
	nets     int
	minWarns int // expected warning count (labels that must miss, …)
}{
	{"polygons.cif", 1, 3, 0},
	// wires.cif: the diagonal poly gate splits the diffusion bar (2
	// nets); poly wire, metal wire and the contacted pad make 5.
	{"wires.cif", 1, 5, 0},
	{"rotated.cif", 4, 12, 0},
	{"flash.cif", 0, 2, 0},
	{"scaled.cif", 2, 6, 0},
	{"freeform.cif", 1, 3, 0},
	{"labels.cif", 0, 3, 1}, // GHOST matches nothing
}

func readCorpus(t *testing.T, name string) *cif.File {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	f, err := cif.ParseBytes(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return f
}

func TestCorpusCounts(t *testing.T) {
	for _, c := range corpus {
		f := readCorpus(t, c.file)
		res, err := File(f, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if probs := res.Netlist.Validate(); len(probs) > 0 {
			t.Errorf("%s: invalid netlist: %v", c.file, probs)
		}
		if len(res.Netlist.Devices) != c.devices {
			t.Errorf("%s: devices %d, want %d\n%s",
				c.file, len(res.Netlist.Devices), c.devices, res.Netlist)
		}
		if len(res.Netlist.Nets) != c.nets {
			t.Errorf("%s: nets %d, want %d\n%s",
				c.file, len(res.Netlist.Nets), c.nets, res.Netlist)
		}
		if _, warns := res.Diagnostics.Count(); warns < c.minWarns {
			t.Errorf("%s: diagnostics %v, want at least %d warnings", c.file, res.Diagnostics.All(), c.minWarns)
		}
	}
}

// TestCorpusEnginesAgree cross-checks the scanline extractor against
// the region-based baseline and HEXT on every corpus file. (The raster
// baseline is exercised elsewhere: corpus geometry is deliberately not
// grid-aligned.)
func TestCorpusEnginesAgree(t *testing.T) {
	for _, c := range corpus {
		f := readCorpus(t, c.file)
		ares, err := File(f, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}

		stream, err := frontend.New(f, frontend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		boxes := stream.Drain()
		cres, err := cifplot.ExtractBoxes(boxes, cifplot.Options{Labels: stream.Labels()})
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if eq, why := netlist.Equivalent(ares.Netlist, cres.Netlist); !eq {
			t.Errorf("%s: cifplot disagrees: %s", c.file, why)
		}

		hres, err := hext.Extract(f, hext.Options{MaxLeafItems: 8})
		if err != nil {
			t.Fatalf("%s: hext: %v", c.file, err)
		}
		if eq, why := netlist.Equivalent(ares.Netlist, hres.Netlist); !eq {
			t.Errorf("%s: hext disagrees: %s", c.file, why)
		}
	}
}

func TestCorpusLabelNames(t *testing.T) {
	f := readCorpus(t, "labels.cif")
	res, err := File(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, nm := range []string{"DIFFY", "POLLY", "METTY", "ANON"} {
		if _, ok := res.Netlist.NetByName(nm); !ok {
			t.Errorf("label %s not attached\n%s", nm, res.Netlist)
		}
	}
	// METTY and ANON are on the same metal bar.
	a, _ := res.Netlist.NetByName("METTY")
	b, _ := res.Netlist.NetByName("ANON")
	if a != b {
		t.Error("METTY and ANON should share a net")
	}
}
