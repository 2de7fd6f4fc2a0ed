package hext

import (
	"slices"
	"testing"

	"ace/internal/cif"
	"ace/internal/netlist"
)

// Two symbols that differ only in a polygon's, a wire's or a label's
// layer must not share a structural hash: their windows would then
// share a memo key, and the memo would hand one symbol's circuit to the
// other. Each design places both symbols, so a shared key shows as a
// netlist that disagrees with flat ACE (a transistor too many, or a
// label's name lost).
func TestSymbolHashSeesLayers(t *testing.T) {
	const diff = "L ND; B 100 20 50 50; "
	designs := []struct{ name, one, two string }{
		{"polygon", diff + "L NP; P 40 0 60 0 60 100 40 100;", diff + "L NM; P 40 0 60 0 60 100 40 100;"},
		{"wire", diff + "L NP; W 20 50 0 50 100;", diff + "L NM; W 20 50 0 50 100;"},
		{"label", diff + "L NP; B 20 100 50 50; 94 A 10 50 NP;", diff + "L NP; B 20 100 50 50; 94 A 10 50 ND;"},
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			src := "DS 1 1 1; " + d.one + " DF; DS 2 1 1; " + d.two + " DF; C 1; C 2 T 1000 0; E"
			f, err := cif.ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			hres, ares := hextVsACE(t, d.name, f, Options{})
			if got, want := netNames(hres.Netlist.Nets), netNames(ares.Netlist.Nets); !slices.Equal(got, want) {
				t.Errorf("HEXT names nets %q, flat ACE %q", got, want)
			}
		})
	}
}

// netNames lists every name on the nets, sorted.
func netNames(nets []netlist.Net) []string {
	var names []string
	for _, n := range nets {
		names = append(names, n.Names...)
	}
	slices.Sort(names)
	return names
}
