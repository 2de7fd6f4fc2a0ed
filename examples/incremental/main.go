// Incremental demonstrates the session API — the "incremental
// extractor" direction ACE §6 closes on. A designer's loop is
// extract → simulate → fix → extract again; with a persistent window
// memo, the second extraction only analyses what changed.
//
// Run with:
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"os"
	"time"

	"ace"
	"ace/internal/gen"
	"ace/internal/geom"
)

// buildChip assembles a small array chip. The tweak flag swaps one
// gate in the row template — the kind of edit a designer makes between
// extraction runs. (Because the row symbol is shared, the edit touches
// every row; the memo still answers for all the unchanged cell
// windows inside them.)
func buildChip(tweak bool) *gen.Design {
	d := gen.NewDesign()
	ram := gen.GateCell(d, "ram", 1)
	alt := gen.GateCell(d, "alt", 3)

	row := d.Cell("row")
	for c := 0; c < 16; c++ {
		cell := ram
		if tweak && c == 7 {
			cell = alt
		}
		row.CallAt(cell, int64(c)*gen.GateCellWidth*gen.Lambda, 0)
	}
	arr := d.Cell("arr")
	pitch := (gen.GateCellHeight(3) + 4) * gen.Lambda
	for r := 0; r < 16; r++ {
		arr.CallAt(row, 0, int64(r)*pitch)
	}
	d.CallTop(arr, geom.Identity)
	return d
}

// rowEdit expresses the tweak as a symbol-granularity ace.Edit:
// redefine the "row" symbol with the edited item list, leaving every
// other symbol untouched.
func rowEdit() ace.Edit {
	f := buildChip(true).File()
	for id, sym := range f.Symbols {
		if sym.Name == "row" {
			return ace.Edit{SymbolID: id, Items: sym.Items, Name: sym.Name}
		}
	}
	panic("row symbol not found")
}

func main() {
	// A cache directory stores each design the session extracts: a
	// later process extracting one of them from the same directory
	// starts warm.
	dir, err := os.MkdirTemp("", "ace-cache-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	session := ace.IncrementalSession(ace.HierOptions{CacheDir: dir})

	t0 := time.Now()
	first, err := session.Extract(buildChip(false).File())
	if err != nil {
		fail(err)
	}
	cold := time.Since(t0)
	fmt.Printf("cold extract:  %-10v %s\n", cold.Round(time.Microsecond), first.Netlist.Stats())
	fmt.Printf("               %d unique windows analysed, %d bytes cached on disk\n\n",
		first.Counters.UniqueWindows, first.Counters.DiskBytes)

	// The designer edits one cell; Session.Apply re-extracts, reusing
	// every window whose content is unchanged.
	t0 = time.Now()
	second, err := session.Apply(rowEdit())
	if err != nil {
		fail(err)
	}
	warm := time.Since(t0)
	fmt.Printf("after edit:    %-10v %s\n", warm.Round(time.Microsecond), second.Netlist.Stats())
	fmt.Printf("               %d new windows analysed, %d reused from the session\n\n",
		second.Counters.UniqueWindows, second.Counters.SessionHits)

	// A brand-new process (fresh session, same cache directory)
	// answers from disk instead of re-sweeping.
	t0 = time.Now()
	reopened, err := ace.IncrementalSession(ace.HierOptions{CacheDir: dir}).
		Extract(buildChip(true).File())
	if err != nil {
		fail(err)
	}
	fmt.Printf("warm process:  %-10v %d disk hits, %d leaf sweeps\n\n",
		time.Since(t0).Round(time.Microsecond),
		reopened.Counters.DiskHits, reopened.Counters.LeafSweeps)

	// Sanity: the incremental result matches a from-scratch run.
	fresh, err := ace.ExtractHierarchicalFile(buildChip(true).File(), ace.HierOptions{})
	if err != nil {
		fail(err)
	}
	if eq, why := ace.Equivalent(second.Netlist, fresh.Netlist); !eq {
		fail(fmt.Errorf("incremental result differs from fresh: %s", why))
	}
	fmt.Printf("incremental result verified against a fresh extraction\n")
	fmt.Printf("(fresh run analyses %d windows; the session re-analysed %d)\n",
		fresh.Counters.UniqueWindows, second.Counters.UniqueWindows)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
