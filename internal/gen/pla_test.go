package gen

import (
	"testing"

	"ace/internal/extract"
)

func TestNORPlaneCounts(t *testing.T) {
	program := [][]bool{
		{true, false, true},
		{false, true, false},
		{true, true, true},
	}
	w := NORPlane(program)
	res, err := extract.File(w.File, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if probs := res.Netlist.Validate(); len(probs) > 0 {
		t.Fatalf("invalid: %v", probs)
	}
	// 6 programmed pull-downs + 3 pull-ups.
	if got := len(res.Netlist.Devices); got != w.WantDevices || got != 9 {
		t.Fatalf("devices %d, want %d\n%s", got, w.WantDevices, res.Netlist)
	}
	if got := len(res.Netlist.Nets); got != w.WantNets || got != 8 {
		t.Fatalf("nets %d, want %d\n%s", got, w.WantNets, res.Netlist)
	}
	st := res.Netlist.Stats()
	if st.Depletion != 3 || st.Enhancement != 6 {
		t.Fatalf("stats %v", st)
	}
	for _, nm := range []string{"IN0", "IN1", "IN2", "PROD0", "PROD1", "PROD2", "VDD", "GND"} {
		if _, ok := res.Netlist.NetByName(nm); !ok {
			t.Fatalf("net %s missing\n%s", nm, res.Netlist)
		}
	}
	if res.Diagnostics.Len() != 0 {
		t.Fatalf("diagnostics: %v", res.Diagnostics.All())
	}
}

func TestNORPlaneEmptyRow(t *testing.T) {
	// A row with no programmed transistor is a bare pull-up: always 1.
	w := NORPlane([][]bool{{false, false}})
	res, err := extract.File(w.File, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Devices) != 1 {
		t.Fatalf("devices %d", len(res.Netlist.Devices))
	}
}

func TestNORPlaneDegenerate(t *testing.T) {
	w := NORPlane(nil)
	if w.WantDevices != 0 {
		t.Fatal("empty program should build nothing")
	}
}
