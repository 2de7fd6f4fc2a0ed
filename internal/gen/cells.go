package gen

import (
	"ace/internal/tech"
)

// Lambda is the NMOS λ in centimicrons; the cell library is drawn on a
// λ grid and scaled up on emission.
const Lambda = 200

// LBox adds a box given in λ units.
func (c *Cell) LBox(layer tech.Layer, x0, y0, x1, y1 int64) *Cell {
	return c.Box(layer, x0*Lambda, y0*Lambda, x1*Lambda, y1*Lambda)
}

// GateCellWidth is the width of every library gate cell in λ.
const GateCellWidth = 30

// GateCellHeight returns the height in λ of a gate cell with k inputs.
func GateCellHeight(k int) int64 { return 26 + 6*int64(k) }

// GateCell builds a k-input NMOS NAND gate (k series enhancement
// pull-downs plus one depletion load with its gate tied to the output
// through a buried contact). It is the library's workhorse: a 1-input
// GateCell is an inverter.
//
// Layout (λ units): GND rail along the bottom, VDD rail along the top,
// a vertical diffusion column between them crossed by k input poly
// strips and the load gate. Extraction yields exactly k+1 devices and
// k+3 nets (VDD, GND, OUT, k inputs) for an isolated instance.
//
// Instances abutted horizontally at GateCellWidth·λ share their VDD
// and GND rails.
func GateCell(d *Design, name string, k int) *Cell {
	if k < 1 {
		k = 1
	}
	h := GateCellHeight(k)
	c := d.Cell(name)

	// Power rails, full width.
	c.LBox(tech.Metal, 0, 0, GateCellWidth, 4)   // GND
	c.LBox(tech.Metal, 0, h-4, GateCellWidth, h) // VDD

	// Diffusion column and its rail contacts. The 4λ pads give the
	// cuts their 1λ diffusion surround (Mead–Conway contact rule).
	c.LBox(tech.Diff, 12, 0, 14, h)
	c.LBox(tech.Diff, 11, 0, 15, 4)
	c.LBox(tech.Diff, 11, h-4, 15, h)
	c.LBox(tech.Cut, 12, 1, 14, 3)
	c.LBox(tech.Cut, 12, h-3, 14, h-1)

	// Pull-down input gates.
	for i := int64(0); i < int64(k); i++ {
		c.LBox(tech.Poly, 4, 6+6*i, 22, 8+6*i)
	}

	// Depletion load and implant. The load channel is 2λ wide and 8λ
	// long (4 squares) against 1-square pull-downs, satisfying the
	// Mead–Conway 4:1 inverter ratio.
	c.LBox(tech.Poly, 8, h-16, 22, h-8)
	c.LBox(tech.Implant, 10, h-17, 16, h-7)

	// Output node: a diffusion branch below the load, tied to the load
	// gate through a buried contact.
	c.LBox(tech.Diff, 14, h-20, 28, h-18)   // output branch
	c.LBox(tech.Poly, 16, h-20, 18, h-8)    // gate tie-down
	c.LBox(tech.Buried, 16, h-20, 18, h-18) // buried contact

	return c
}

// GateDevices returns the device count of a k-input GateCell.
func GateDevices(k int) int { return k + 1 }

// GateNets returns the net count of one isolated k-input GateCell:
// k inputs, VDD, GND, the output, and the k−1 intermediate nodes of
// the series pull-down chain.
func GateNets(k int) int { return 2*k + 2 }

// ChainInverterCell builds an inverter whose input enters on poly at
// the cell's left edge and whose output leaves on poly at the right
// edge, at matching heights — so a row of abutted instances forms a
// functional inverter chain (input of stage i+1 driven by stage i).
func ChainInverterCell(d *Design, name string) *Cell {
	c := GateCell(d, name, 1)
	h := GateCellHeight(1)
	// Output poly wire from the gate tie to the right edge.
	c.LBox(tech.Poly, 18, h-18, GateCellWidth, h-16)
	// Input riser from the left edge down to the input strip; it
	// reaches up to the incoming wire's height and right to x=4 where
	// it contacts the input strip.
	c.LBox(tech.Poly, 0, 6, 4, h-16)
	return c
}

// chainCellExtraNets is the net-count delta of ChainInverterCell vs a
// plain 1-input GateCell (zero: the wires join existing nets).
const chainCellExtraNets = 0
