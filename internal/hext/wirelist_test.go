package hext

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"ace/internal/gen"
	"ace/internal/wirelist"
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

// flatGoldens are the SHA-256 digests of wirelist.Format of the
// flattened netlist hext.Extract returns, for the six HEXT Table 5-1
// chips at scale 0.05 and at 0.25 (the benchmark's scale). They were
// recorded before the planner cached instance bounds and the flatten
// moved onto a reused handle stack; those changes must keep every byte.
var flatGoldens = []struct {
	chip  string
	scale float64
	sum   string
}{
	{"cherry", 0.05, "819e0ae1f1f711e5309dffcee7bd0a0ed9a6af822f600abfb6ff29874b5ce2d8"},
	{"dchip", 0.05, "420acf1d051f872792c2cdb42966bcae7296c51d8a5e0a895550e3f99cbad172"},
	{"schip2", 0.05, "0c192a849ed43d0ca28912c1b3dca6c2a68a919c25f49448bc919d07a7e8c1e5"},
	{"testram", 0.05, "050d161ed67b47b9c537edbf584764ada8f1cfacfd7118c203c0cabf4f0cb7fe"},
	{"psc", 0.05, "bf3d763b35af4ffb6d9d4a92c463c399706e131c3590b515b12cd5aa3a99050d"},
	{"riscb", 0.05, "2b9bcb1cb8fefd0499a9209321fd953c2d102acf83303ac82777a1f986a3f87f"},
	{"cherry", 0.25, "8b767f08e8a0023f48a10ca05aa01a13a3f98e2d3c547a938c253c546fcae05c"},
	{"dchip", 0.25, "68db86f3ad6ee929306082aa5701c5ca4a5ba472395b3dad082de3086d9d33f5"},
	{"schip2", 0.25, "d8f595b281f8c37a00df0615d541bd0c957ac3a9616c2db96bf5ddd586b9dcc4"},
	{"testram", 0.25, "09bcf722dbdf0f1af7866d5056eed3a5a29c7d026bef9bc40935d4455c2ee1e0"},
	{"psc", 0.25, "84a7b13ba6716ff855faab146ba2eb2543d70828af6568c84929843eb0a3850d"},
	{"riscb", 0.25, "0d41193e06e18b5fdafaeb768044642faaaee05f8283d3ee70a21cd0d315030d"},
}

func TestFlatWirelistGoldenHEXT(t *testing.T) {
	for _, g := range flatGoldens {
		t.Run(fmt.Sprintf("%s@%v", g.chip, g.scale), func(t *testing.T) {
			c, ok := gen.ChipByName(g.chip)
			if !ok {
				t.Fatalf("no chip %s", g.chip)
			}
			res, err := Extract(c.Build(g.scale).File, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(wirelist.Format(res.Netlist, wirelist.Options{})))
			if got := hex.EncodeToString(sum[:]); got != g.sum {
				t.Errorf("flat wirelist digest %s, want %s", got, g.sum)
			}
		})
	}
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
