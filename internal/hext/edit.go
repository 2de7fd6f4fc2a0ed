package hext

import (
	"context"
	"fmt"

	"ace/internal/cif"
)

// Edit is one change to the most recently extracted design: replace
// the top-level item list, or replace / add / delete one symbol
// definition. Edits are symbol-granular because that is the unit an
// interactive layout editor works in; the session's content-derived
// memo keys then confine re-extraction to the windows whose contents
// actually changed — everything else recomposes from the in-memory
// memo or the disk cache.
type Edit struct {
	// Top replaces the file's top-level items with Items; SymbolID,
	// Delete and Name are ignored.
	Top bool

	// SymbolID is the symbol definition the edit targets.
	SymbolID int

	// Delete removes the symbol definition. The symbol must not be
	// called anywhere after all edits apply.
	Delete bool

	// Items is the symbol's (or top's) new contents.
	Items []cif.Item

	// Name optionally (re)names the symbol; empty keeps the old name
	// (or none, for a new symbol).
	Name string
}

// Apply re-extracts the session's last design with the given edits
// applied. The base design is not modified — the session clones the
// file structure and shares the untouched symbol definitions, so an
// editor can keep its own copy. Returns the full extraction result
// for the edited design; the session memo then reflects it, so a
// subsequent Apply edits the edited design.
func (s *Session) Apply(edits ...Edit) (*Result, error) {
	return s.ApplyContext(nil, edits...)
}

// ApplyContext is Apply with cooperative cancellation.
func (s *Session) ApplyContext(ctx context.Context, edits ...Edit) (*Result, error) {
	if s.last == nil {
		return nil, fmt.Errorf("hext: Apply before any Extract in this session")
	}
	f, err := applyEdits(s.last, edits)
	if err != nil {
		return nil, err
	}
	return s.ExtractContext(ctx, f)
}

// Design returns the design the session last extracted (after any
// applied edits), or nil before the first Extract.
func (s *Session) Design() *cif.File { return s.last }

// applyEdits builds the edited file: a fresh symbol table sharing the
// unmodified *Symbol values with the base. Every call is then checked
// against the table — the window recursion expands calls
// unconditionally, so a dangling call must be rejected here, not
// discovered as a panic.
func applyEdits(base *cif.File, edits []Edit) (*cif.File, error) {
	f := &cif.File{
		Symbols:     make(map[int]*cif.Symbol, len(base.Symbols)+len(edits)),
		Top:         base.Top,
		Diagnostics: base.Diagnostics,
	}
	for id, sym := range base.Symbols {
		f.Symbols[id] = sym
	}
	for _, ed := range edits {
		switch {
		case ed.Top:
			f.Top = ed.Items
		case ed.Delete:
			if _, ok := f.Symbols[ed.SymbolID]; !ok {
				return nil, fmt.Errorf("hext: edit deletes unknown symbol %d", ed.SymbolID)
			}
			delete(f.Symbols, ed.SymbolID)
		default:
			name := ed.Name
			if name == "" {
				if old, ok := f.Symbols[ed.SymbolID]; ok {
					name = old.Name
				}
			}
			f.Symbols[ed.SymbolID] = &cif.Symbol{ID: ed.SymbolID, Name: name, Items: ed.Items}
		}
	}
	check := func(items []cif.Item, where string) error {
		for _, it := range items {
			if it.Kind == cif.ItemCall {
				if _, ok := f.Symbols[it.SymbolID]; !ok {
					return fmt.Errorf("hext: edited design calls undefined symbol %d from %s",
						it.SymbolID, where)
				}
			}
		}
		return nil
	}
	if err := check(f.Top, "top level"); err != nil {
		return nil, err
	}
	for id, sym := range f.Symbols {
		if err := check(sym.Items, fmt.Sprintf("symbol %d", id)); err != nil {
			return nil, err
		}
	}
	return f, nil
}
