package frontend

import (
	"errors"
	"strings"
	"testing"

	"ace/internal/cif"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/tech"
)

func callItem(sym int) cif.Item {
	return cif.Item{Kind: cif.ItemCall, SymbolID: sym, Trans: geom.Identity}
}

func boxItem() cif.Item {
	return cif.Item{Kind: cif.ItemBox, Layer: tech.Metal, Box: geom.Rect{XMin: 0, YMin: 0, XMax: 100, YMax: 100}}
}

// TestCycleRejected: the CIF parser refuses recursive definitions, but
// the front end also accepts synthesised symbol tables. A cycle must
// come back as an error — the lazy heap would otherwise expand it
// forever.
func TestCycleRejected(t *testing.T) {
	syms := map[int]*cif.Symbol{
		1: {ID: 1, Items: []cif.Item{boxItem(), callItem(2)}},
		2: {ID: 2, Items: []cif.Item{callItem(1)}},
	}
	top := []cif.Item{callItem(1)}

	if _, err := NewItems(top, syms, Options{}); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("NewItems: got %v, want a recursive-definition error", err)
	}
}

// TestSelfCycleRejected covers the tightest loop: a symbol calling
// itself.
func TestSelfCycleRejected(t *testing.T) {
	syms := map[int]*cif.Symbol{
		1: {ID: 1, Items: []cif.Item{boxItem(), callItem(1)}},
	}
	top := []cif.Item{callItem(1)}
	if _, err := NewItems(top, syms, Options{}); err == nil || !strings.Contains(err.Error(), "DS 1") {
		t.Fatalf("got %v, want an error naming DS 1", err)
	}
}

// TestDepthLimit: a chain one level deeper than MaxDepth is rejected
// with a typed LimitError before any expansion work, while the same
// chain within the budget extracts normally.
func TestDepthLimit(t *testing.T) {
	const chain = 40
	syms := map[int]*cif.Symbol{1: {ID: 1, Items: []cif.Item{boxItem()}}}
	for i := 2; i <= chain; i++ {
		syms[i] = &cif.Symbol{ID: i, Items: []cif.Item{callItem(i - 1)}}
	}
	top := []cif.Item{callItem(chain)}

	_, err := NewItems(top, syms, Options{Limits: guard.Limits{MaxDepth: chain - 1}})
	var le *guard.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("got %v (%T), want *guard.LimitError", err, err)
	}
	if le.Stage != guard.StageFrontend || le.What != "call-hierarchy depth" {
		t.Fatalf("bad attribution: %+v", le)
	}

	if _, err := NewItems(top, syms, Options{Limits: guard.Limits{MaxDepth: chain}}); err != nil {
		t.Fatalf("within the budget: %v", err)
	}
}
