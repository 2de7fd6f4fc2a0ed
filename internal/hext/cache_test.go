package hext

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ace/internal/cif"
	"ace/internal/gen"
	"ace/internal/wirelist"
)

func flatWirelist(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := wirelist.Write(&buf, res.Netlist, wirelist.Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The reuse-sweep workload: 64 replicated instances whose windows all
// differ (varying margins defeat the memo table), but whose anchored
// contents repeat. The content cache must collapse the leaf sweeps to
// the number of distinct contents while the netlist stays equivalent
// to flat ACE.
func TestContentCacheHits(t *testing.T) {
	w := gen.Replicated(64)
	hres, _ := hextVsACE(t, w.Name, w.File, Options{})
	if got := len(hres.Netlist.Devices); got != w.WantDevices {
		t.Fatalf("devices %d, want %d", got, w.WantDevices)
	}
	if got := len(hres.Netlist.Nets); got != w.WantNets {
		t.Fatalf("nets %d, want %d", got, w.WantNets)
	}
	c := hres.Counters
	if c.LeafSweeps != c.CacheMisses {
		t.Fatalf("LeafSweeps %d != CacheMisses %d with cache enabled (%+v)",
			c.LeafSweeps, c.CacheMisses, c)
	}
	if c.CacheHits == 0 {
		t.Fatalf("no cache hits on 64 replicated instances: %+v", c)
	}
	// Leaf sweeps are bounded by the number of *distinct* window
	// contents — the cell content plus empty/rail margins — not by the
	// number of flat calls (one per window).
	if c.LeafSweeps >= c.FlatCalls {
		t.Fatalf("cache shared nothing: sweeps %d, flat calls %d (%+v)",
			c.LeafSweeps, c.FlatCalls, c)
	}
	if c.LeafSweeps > 8 {
		t.Fatalf("too many distinct sweeps for a replicated row: %d (%+v)", c.LeafSweeps, c)
	}
}

// extractNoCache runs a cold Extract with the window memo on and the
// content cache off: a session whose sweep map is nil, the path
// DisableMemo takes.
func extractNoCache(f *cif.File, opt Options) (*Result, error) {
	s := NewSession(opt)
	s.sweeps = nil
	return s.Extract(f)
}

// With the cache disabled every flat call sweeps.
func TestCacheDisabled(t *testing.T) {
	w := gen.Replicated(16)
	hres, err := extractNoCache(w.File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agreesWithACE(t, "replicatedNoCache", w.File, hres)
	c := hres.Counters
	if c.CacheHits != 0 || c.CacheMisses != 0 {
		t.Fatalf("cache counters moved while disabled: %+v", c)
	}
	if c.LeafSweeps != c.FlatCalls {
		t.Fatalf("LeafSweeps %d != FlatCalls %d with cache disabled (%+v)",
			c.LeafSweeps, c.FlatCalls, c)
	}
}

// The content cache changes how often leaves are swept, never the
// output: flat wirelist, hierarchical wirelist and diagnostics are
// identical with the cache on and off.
func TestCacheConfigByteIdentical(t *testing.T) {
	workloads := []struct {
		name string
		file *cif.File
		base Options
	}{
		{"replicated", gen.Replicated(48).File, Options{}},
		{"memory", gen.Memory(8, 8).File, Options{}},
		// MaxLeafItems 4 forces cuts through channels: partial
		// transistors cross the compose path.
		{"mesh", gen.Mesh(5).File, Options{MaxLeafItems: 4}},
		{"statistical", gen.Statistical(600, 7).File, Options{MaxLeafItems: 60}},
	}
	for _, w := range workloads {
		ref, err := Extract(w.file, w.base)
		if err != nil {
			t.Fatalf("%s: default cache: %v", w.name, err)
		}
		res, err := extractNoCache(w.file, w.base)
		if err != nil {
			t.Fatalf("%s/nocache: %v", w.name, err)
		}
		if got, want := flatWirelist(t, res), flatWirelist(t, ref); got != want {
			t.Fatalf("%s/nocache: flat wirelist differs from the default-cache run", w.name)
		}
		if got, want := res.HierarchicalString(), ref.HierarchicalString(); got != want {
			t.Fatalf("%s/nocache: hierarchical wirelist differs from the default-cache run", w.name)
		}
		if got, want := res.Diagnostics.All(), ref.Diagnostics.All(); !slices.Equal(got, want) {
			t.Fatalf("%s/nocache: diagnostics %v != default-cache %v", w.name, got, want)
		}
	}
}

// BenchmarkHext is the reuse sweep of the hierarchical benchmark:
// replicating the same cell 1×, 8× and 64× should grow extraction cost
// far slower than linearly while the content cache absorbs the leaf
// sweeps. The no-cache variant quantifies the memoisation.
func BenchmarkHext(b *testing.B) {
	for _, reps := range []int{1, 8, 64} {
		w := gen.Replicated(reps)
		for _, v := range []struct {
			tag     string
			extract func(*cif.File, Options) (*Result, error)
		}{
			{"cache", Extract},
			{"nocache", extractNoCache},
		} {
			b.Run(fmt.Sprintf("reps=%d/%s", reps, v.tag), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := v.extract(w.File, Options{})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Netlist.Devices) != w.WantDevices {
						b.Fatalf("devices %d, want %d", len(res.Netlist.Devices), w.WantDevices)
					}
				}
			})
		}
	}
}
