package hext

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"ace/internal/gen"
)

func TestHierarchicalWirelistFourInverters(t *testing.T) {
	res, err := Extract(gen.FourInverters(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := res.HierarchicalString()
	for _, want := range []string{
		"(DefPart nEnh (Exports G S D))",
		"(DefPart Window",
		"(Part Window",
		"(LocOffset",
		"(Name Top)",
		"(Exports",
		"(Local",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("wirelist missing %q:\n%s", want, truncate(text, 2000))
		}
	}
	// Sharing: the inverter window must appear as ONE DefPart but
	// multiple Parts. Count DefParts vs Parts.
	defs := strings.Count(text, "(DefPart Window")
	parts := strings.Count(text, "(Part Window")
	if parts <= defs {
		t.Fatalf("no window sharing visible: %d defs, %d parts", defs, parts)
	}
	// Net equivalences across seams must appear.
	if !strings.Contains(text, "/N") {
		t.Fatal("no cross-window net references")
	}
}

func TestHierarchicalWirelistPartials(t *testing.T) {
	// Splitting the mesh cuts channels: the wirelist must carry
	// partial-transistor clauses. (Mesh(5)'s width is 22λ, so the
	// midpoint cut lands inside the middle diffusion column and slices
	// its five channels.)
	res, err := Extract(gen.Mesh(5).File, Options{MaxLeafItems: 3})
	if err != nil {
		t.Fatal(err)
	}
	text := res.HierarchicalString()
	if !strings.Contains(text, "TPart") {
		t.Fatalf("no partial transistors in wirelist:\n%s", truncate(text, 2000))
	}
}

func TestHierarchicalWirelistNames(t *testing.T) {
	res, err := Extract(gen.InverterChain(2).File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = res.HierarchicalString() // names live in overlay labels (flatten-time), so
	// the hierarchical text carries windows only; ensure it renders
	// without error and the flattened netlist has the names.
	for _, nm := range []string{"IN", "OUT", "VDD", "GND"} {
		if _, ok := res.Netlist.NetByName(nm); !ok {
			t.Fatalf("net %s missing from flattened result", nm)
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// hierGoldens are the SHA-256 digests of HierarchicalString() for the
// six HEXT Table 5-1 chips at scale 0.05, recorded with the fmt-based
// writer. The strconv writer must reproduce every byte.
var hierGoldens = []struct{ chip, sum string }{
	{"cherry", "e121a953d9f46645870a6448181f451716129215c805d8888edfb6403b12e077"},
	{"dchip", "16b13c248d2a4f08e3ed5aab65327dda7afa8de326a7d26723bc0df1477c3d6b"},
	{"schip2", "2f36c4766b86374d4df0b3227eee7ab4fc3214e3bfc842a5b78d3af61e6df9af"},
	{"testram", "9a510b476f0b26e268d9b403bed1509b3bd5383e8a802a3947c0d88cde5d8090"},
	{"psc", "daf441ac288852edff75389ca69031f823de964ff9ea252648a20fd9c0a113d3"},
	{"riscb", "be0343489ce48282810b529e4d9a7f61121a2847b351df01a0f8746a7ad45e37"},
}

func TestHierarchicalWirelistGolden(t *testing.T) {
	for _, g := range hierGoldens {
		t.Run(g.chip, func(t *testing.T) {
			c, ok := gen.ChipByName(g.chip)
			if !ok {
				t.Fatalf("no chip %s", g.chip)
			}
			res, err := Extract(c.Build(0.05).File, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(res.HierarchicalString()))
			if got := hex.EncodeToString(sum[:]); got != g.sum {
				t.Errorf("hierarchical wirelist digest %s, want %s", got, g.sum)
			}
		})
	}
}
