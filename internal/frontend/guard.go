package frontend

import (
	"fmt"

	"ace/internal/cif"
	"ace/internal/diag"
	"ace/internal/guard"
)

// addDiag records a diagnostic into an optional sink.
func addDiag(ds *diag.Set, d diag.Diagnostic) {
	if ds != nil {
		ds.Add(d)
	}
}

// checkHierarchy walks the call graph reachable from items and rejects
// cycles and hierarchies deeper than maxDepth, before any expansion
// work begins. The CIF parser already rejects recursive definitions,
// but the front end also accepts synthesised symbol tables (HEXT
// windows, tests, library users), and the lazy heap would loop forever
// on a self-referential symbol. This mirrors the depth guard
// hext's hierarchical-wirelist parser applies in hierparse.go.
//
// Errors name the offending DS so they read like parse errors.
func checkHierarchy(items []cif.Item, syms map[int]*cif.Symbol, maxDepth int) error {
	// depths memoises the longest symbol chain starting at a symbol
	// (>= 1); onStack marks the DFS path for cycle detection.
	depths := make(map[int]int)
	onStack := make(map[int]bool)
	var visit func(id, depth int) (int, error)
	visit = func(id, depth int) (int, error) {
		if depth > maxDepth {
			return 0, &guard.LimitError{
				Stage: guard.StageFrontend, What: "call-hierarchy depth",
				Value: int64(depth), Limit: int64(maxDepth),
			}
		}
		if onStack[id] {
			return 0, fmt.Errorf("frontend: recursive symbol definition involving DS %d", id)
		}
		if d, ok := depths[id]; ok {
			return d, nil
		}
		sym := syms[id]
		if sym == nil {
			depths[id] = 1
			return 1, nil
		}
		onStack[id] = true
		deepest := 0
		for _, it := range sym.Items {
			if it.Kind != cif.ItemCall {
				continue
			}
			d, err := visit(it.SymbolID, depth+1)
			if err != nil {
				return 0, err
			}
			if d > deepest {
				deepest = d
			}
		}
		delete(onStack, id)
		depths[id] = deepest + 1
		return deepest + 1, nil
	}
	for _, it := range items {
		if it.Kind != cif.ItemCall {
			continue
		}
		d, err := visit(it.SymbolID, 1)
		if err != nil {
			return err
		}
		if d > maxDepth {
			return &guard.LimitError{
				Stage: guard.StageFrontend, What: "call-hierarchy depth",
				Value: int64(d), Limit: int64(maxDepth),
			}
		}
	}
	return nil
}

// checkHierarchyLenient is checkHierarchy's fail-soft counterpart: a
// symbol found on the DFS path (a cycle) or past the depth budget is
// reported into ds and added to the returned ban set, whose calls the
// front ends then drop — the rest of the design still extracts. The
// walk follows item order, so the diagnostics and the ban choices are
// deterministic.
func checkHierarchyLenient(items []cif.Item, syms map[int]*cif.Symbol, maxDepth int, ds *diag.Set) map[int]bool {
	banned := map[int]bool{}
	ban := func(id int, code, format string, args ...any) {
		if banned[id] {
			return
		}
		banned[id] = true
		addDiag(ds, diag.New(diag.Error, guard.StageFrontend, code,
			fmt.Sprintf(format, args...)))
	}
	depths := make(map[int]int)
	onStack := make(map[int]bool)
	var visit func(id, depth int) int
	visit = func(id, depth int) int {
		if depth > maxDepth {
			ban(id, "hierarchy-depth",
				"call hierarchy exceeds depth limit %d at DS %d; calls to it dropped", maxDepth, id)
			return 0
		}
		if onStack[id] {
			ban(id, "hierarchy-cycle",
				"recursive symbol definition involving DS %d; calls to it dropped", id)
			return 0
		}
		if d, ok := depths[id]; ok {
			return d
		}
		sym := syms[id]
		if sym == nil {
			// The parser's lenient pass scrubs undefined calls, but a
			// synthesised symbol table handed straight to the front end
			// can still hold them; expanding one would dereference nil.
			ban(id, "undefined-symbol", "call to undefined symbol %d dropped", id)
			return 0
		}
		onStack[id] = true
		deepest := 0
		for _, it := range sym.Items {
			if it.Kind != cif.ItemCall {
				continue
			}
			if d := visit(it.SymbolID, depth+1); d > deepest {
				deepest = d
			}
		}
		delete(onStack, id)
		depths[id] = deepest + 1
		return deepest + 1
	}
	for _, it := range items {
		if it.Kind != cif.ItemCall {
			continue
		}
		if d := visit(it.SymbolID, 1); d > maxDepth {
			ban(it.SymbolID, "hierarchy-depth",
				"call hierarchy exceeds depth limit %d at DS %d; calls to it dropped", maxDepth, it.SymbolID)
		}
	}
	if len(banned) == 0 {
		return nil
	}
	return banned
}
