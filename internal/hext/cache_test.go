package hext

import (
	"bytes"
	"fmt"
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
	if c.CacheBytes <= 0 {
		t.Fatalf("cache byte gauge not recorded: %+v", c)
	}
}

// With the cache disabled every flat call sweeps.
func TestCacheDisabled(t *testing.T) {
	w := gen.Replicated(16)
	hres, _ := hextVsACE(t, "replicatedNoCache", w.File, Options{CacheSize: -1})
	c := hres.Counters
	if c.CacheHits != 0 || c.CacheMisses != 0 || c.CacheBytes != 0 {
		t.Fatalf("cache counters moved while disabled: %+v", c)
	}
	if c.LeafSweeps != c.FlatCalls {
		t.Fatalf("LeafSweeps %d != FlatCalls %d with cache disabled (%+v)",
			c.LeafSweeps, c.FlatCalls, c)
	}
}

// A pathologically small cache must evict but never corrupt results.
func TestCacheEvictionCorrectness(t *testing.T) {
	w := gen.Memory(6, 6)
	hres, _ := hextVsACE(t, "memoryTinyCache", w.File, Options{CacheSize: 2})
	if got := len(hres.Netlist.Devices); got != w.WantDevices {
		t.Fatalf("devices %d, want %d", got, w.WantDevices)
	}
	ref, err := Extract(w.File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := flatWirelist(t, hres), flatWirelist(t, ref); a != b {
		t.Fatal("tiny-cache wirelist differs from default-cache wirelist")
	}
}

// The content cache changes how often leaves are swept, never the
// output: flat wirelist, hierarchical wirelist and warnings are
// byte-identical with the default cache, with the cache off and with a
// cache so small it evicts throughout the run.
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
		refFlat := flatWirelist(t, ref)
		refHier := ref.HierarchicalString()
		for _, v := range []struct {
			tag   string
			cache int
		}{
			{"nocache", -1},
			{"cache=3", 3},
		} {
			opt := w.base
			opt.CacheSize = v.cache
			res, err := Extract(w.file, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, v.tag, err)
			}
			if got := flatWirelist(t, res); got != refFlat {
				t.Fatalf("%s/%s: flat wirelist differs from the default-cache run", w.name, v.tag)
			}
			if got := res.HierarchicalString(); got != refHier {
				t.Fatalf("%s/%s: hierarchical wirelist differs from the default-cache run", w.name, v.tag)
			}
			if len(res.Warnings) != len(ref.Warnings) {
				t.Fatalf("%s/%s: warning count %d != default-cache %d",
					w.name, v.tag, len(res.Warnings), len(ref.Warnings))
			}
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
			tag string
			opt Options
		}{
			{"cache", Options{}},
			{"nocache", Options{CacheSize: -1}},
		} {
			b.Run(fmt.Sprintf("reps=%d/%s", reps, v.tag), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := Extract(w.File, v.opt)
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
