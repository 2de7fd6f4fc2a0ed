package extract

import (
	"io"
	"strings"
	"testing"
)

// TestReaderEntryPoint drives CIF that arrives as an io.Reader the way
// ace.Extract and aced do: read it once, hand the bytes to Engine.CIF.
// A warm Engine must stay usable after a parse error.
func TestReaderEntryPoint(t *testing.T) {
	eng := NewEngine()
	read := func(src string) []byte {
		b, err := io.ReadAll(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const good = "L ND; B 100 100 0 0;\nL NP; B 300 20 0 0;\nE\n"
	for i := 0; i < 2; i++ {
		res, err := eng.CIF(nil, read(good), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Netlist.Devices) != 1 {
			t.Fatalf("run %d: devices %d", i, len(res.Netlist.Devices))
		}
		if res.Phases.Parse <= 0 || res.Phases.Total < res.Phases.Parse {
			t.Fatalf("run %d: phases %+v", i, res.Phases)
		}
		// Parse errors surface, and the Engine extracts again after one.
		if _, err := eng.CIF(nil, read("DS 1;\n"), Options{}); err == nil {
			t.Fatalf("run %d: expected parse error", i)
		}
	}
}
