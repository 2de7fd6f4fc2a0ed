// Worstcase demonstrates ACE §4's worst case: n poly lines crossing n
// diffusion lines form a mesh where 2n boxes denote n² transistors, so
// no extractor can beat quadratic time here. Watch the device count
// and run time grow quadratically while the box count grows linearly.
//
// Run with:
//
//	go run ./examples/worstcase
package main

import (
	"fmt"
	"os"
	"time"

	"ace"
	"ace/internal/gen"
)

func main() {
	fmt.Printf("%6s %8s %10s %12s\n", "n", "boxes", "devices", "time")
	for _, n := range []int{8, 16, 32, 64, 128} {
		w := gen.Mesh(n)
		t0 := time.Now()
		res, err := ace.ExtractFile(w.File, ace.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%6d %8d %10d %12v\n",
			n, res.Counters.BoxesIn, len(res.Netlist.Devices),
			time.Since(t0).Round(10*time.Microsecond))
	}
	fmt.Println("\nboxes grow linearly in n; devices (and time) quadratically —")
	fmt.Println("the O(N²) lower bound of ACE §4, since every transistor must be found.")
}
