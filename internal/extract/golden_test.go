package extract

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ace/internal/gen"
	"ace/internal/wirelist"
)

// flatGoldens are SHA-256 digests of the flat wirelist of each Table
// 5-1 chip at gen.BenchScale, without and with geometry, recorded with
// the 112-byte-entry heap and the fmt writer. They pin the bytes of the
// whole flat path: front end, sweep and writer.
var flatGoldens = []struct{ chip, plain, geometry string }{
	{"cherry",
		"5a5faf009ebf4c56119534b2956d14d21c131aa104db281f6fe6a4859cbb3a13",
		"13823766fcffab3d620f9f9a5167d8a37535dd7ba05021df71d1b0632d3db780"},
	{"dchip",
		"ec3e7b3e67c944862c040b00d542d9b6006958800596928aa80c5225a6d49d8d",
		"fc103a2c3c95a2010cb41d823cae34bbf97eba065eb6692e5a7ae8de5fff5540"},
	{"schip2",
		"b3249fe3f0328cb45edaa90d5d1e1f9c34989f8ce8a64f2ff94f9c752b514ef3",
		"fde77f75a82d875ca39465b016990d4102c9ed1cc888f397469a4113381f06db"},
	{"testram",
		"589e978b09df0792fdb4d81dd2fb04acebddef1ecd5e105a8835896c2490640a",
		"12fb0a10b893346f2025762f7503a4ceac76cd8978e0bbaf685ef9270bac04e6"},
	{"psc",
		"b7dd34b74c2225caa55f1db5445754893e58b3a05c4b5964deb0947418d2b0a3",
		"05118264e4f50b3b52e5472179d956f9ad42ef99949beaa48b4907db2292a464"},
	{"riscb",
		"ea63f3db644ccfef2c333cfe11634fd8809894b6b4e4ed74682f16d8d38b5e1c",
		"f4c2a3fbd89647266a0732ea038d9af974f3b1f35f93fcdadf33714c9f449a6a"},
	{"scheme81",
		"cdead6bb11ee9fac2ea005b966ac9525408f2aea72d19ea9296eab4e12b0c78c",
		"96ec427a09202b1103cf4b6373c6ff9dfe2d30c567dbe0c45277911b68c13e55"},
}

func TestFlatWirelistGolden(t *testing.T) {
	for _, g := range flatGoldens {
		t.Run(g.chip, func(t *testing.T) {
			w := gen.MustBenchChip(g.chip)
			res, err := File(w.File, Options{KeepGeometry: true})
			if err != nil {
				t.Fatal(err)
			}
			res.Netlist.Name = g.chip
			for _, tc := range []struct {
				geo  bool
				want string
			}{{false, g.plain}, {true, g.geometry}} {
				sum := sha256.Sum256([]byte(wirelist.Format(res.Netlist, wirelist.Options{Geometry: tc.geo})))
				if got := hex.EncodeToString(sum[:]); got != tc.want {
					t.Errorf("geometry=%v: digest %s, want %s", tc.geo, got, tc.want)
				}
			}
		})
	}
}
