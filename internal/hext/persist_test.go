package hext

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ace/internal/cif"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/store"
	"ace/internal/wirelist"
)

func hierWirelist(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteHierarchical(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// editableChip builds the persistence workload: a row of replicated
// gate cells (plus an array level so the window tree has real depth).
// With edit set, one cell in the middle is swapped for a different
// gate — the "one cell edit" of an interactive session.
func editableChip(edit bool) *cif.File {
	d := gen.NewDesign()
	cell := gen.GateCell(d, "cell", 1)
	odd := gen.GateCell(d, "odd", 2)
	row := d.Cell("row")
	for c := 0; c < 8; c++ {
		use := cell
		if edit && c == 3 {
			use = odd
		}
		row.CallAt(use, int64(c)*gen.GateCellWidth*gen.Lambda, 0)
	}
	arr := d.Cell("arr")
	pitch := (gen.GateCellHeight(2) + 4) * gen.Lambda
	for r := 0; r < 8; r++ {
		arr.CallAt(row, 0, int64(r)*pitch)
	}
	d.CallTop(arr, geom.Identity)
	return d.File()
}

// twoRowChip builds top calling a 4-cell left row, then a 4-cell right
// row of the same cells. With edit set, one left-row cell is swapped
// for the 2-input gate, so the right row's windows are ones the left
// row's recursion has already extracted.
func twoRowChip(edit bool) *cif.File {
	d := gen.NewDesign()
	cell := gen.GateCell(d, "cell", 1)
	odd := gen.GateCell(d, "odd", 2)
	left, right := d.Cell("left"), d.Cell("right")
	for c := 0; c < 4; c++ {
		use := cell
		if edit && c == 1 {
			use = odd
		}
		left.CallAt(use, int64(c)*gen.GateCellWidth*gen.Lambda, 0)
		right.CallAt(cell, int64(c)*gen.GateCellWidth*gen.Lambda, 0)
	}
	top := d.Cell("top")
	top.CallAt(left, 0, 0)
	top.CallAt(right, 4*gen.GateCellWidth*gen.Lambda, 0)
	d.CallTop(top, geom.Identity)
	return d.File()
}

// TestWarmEditHierarchicalBytes: a fresh session extracting an edited
// design over a cache filled from the unedited one misses the one
// whole-result entry it looks for, reads nothing else from the store,
// and writes the same flat and hierarchical wirelists as a cold run.
func TestWarmEditHierarchicalBytes(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewSession(Options{CacheDir: dir}).Extract(twoRowChip(false)); err != nil {
		t.Fatal(err)
	}
	warm, err := NewSession(Options{CacheDir: dir}).Extract(twoRowChip(true))
	if err != nil {
		t.Fatal(err)
	}
	if c := warm.Counters; c.DiskMisses != 1 || c.DiskHits != 0 {
		t.Fatalf("edited run: %d disk misses and %d hits, want 1 and 0 (%+v)", c.DiskMisses, c.DiskHits, c)
	}
	cold, err := Extract(twoRowChip(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flatWirelist(t, warm), flatWirelist(t, cold); got != want {
		t.Fatal("warm edited flat wirelist differs from cold")
	}
	got, want := hierWirelist(t, warm), hierWirelist(t, cold)
	if got != want {
		t.Fatalf("warm edited hierarchical wirelist differs from cold: %d DefPart Windows, cold %d",
			strings.Count(got, "(DefPart Window"), strings.Count(want, "(DefPart Window"))
	}
}

// TestWarmSessionHierarchicalBytes: a Session that has already
// extracted one design writes the next design's hierarchical wirelist
// byte for byte as a fresh session does, whether it extracts the edited
// design anew or applies the edit. Windows are numbered as the wirelist
// is written, so what the session held before changes no number.
func TestWarmSessionHierarchicalBytes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		base, edit *cif.File
		apply      bool
	}{
		{"two-row extract", twoRowChip(false), twoRowChip(true), false},
		{"editable apply", editableChip(false), editableChip(true), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(Options{})
			for step, f := range []*cif.File{tc.base, tc.edit} {
				var res *Result
				var err error
				if step == 1 && tc.apply {
					res, err = s.Apply(editOneCell())
				} else {
					res, err = s.Extract(f)
				}
				if err != nil {
					t.Fatal(err)
				}
				cold, err := Extract(f, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := hierWirelist(t, res), hierWirelist(t, cold); got != want {
					t.Fatalf("step %d: hierarchical wirelist differs from a fresh session's: %d DefPart Windows, fresh %d",
						step, strings.Count(got, "(DefPart Window"), strings.Count(want, "(DefPart Window"))
				}
			}
		})
	}
}

// TestDiskHitConcurrentHierarchical: goroutines rendering one disk-hit
// result at once each write a cold run's hierarchical wirelist.
// Rendering copies the stored entry and writes nothing to the Result,
// so -race finds nothing to report.
func TestDiskHitConcurrentHierarchical(t *testing.T) {
	dir := t.TempDir()
	cold, err := NewSession(Options{CacheDir: dir}).Extract(editableChip(false))
	if err != nil {
		t.Fatal(err)
	}
	want := hierWirelist(t, cold)
	res, err := NewSession(Options{CacheDir: dir}).Extract(editableChip(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.DiskHits != 1 {
		t.Fatalf("second session missed the cache: %+v", res.Counters)
	}
	var wg sync.WaitGroup
	outs := make([]string, 4)
	errs := make([]error, 4)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			errs[i] = res.WriteHierarchical(&buf)
			outs[i] = buf.String()
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if outs[i] != want {
			t.Fatalf("writer %d: hierarchical bytes differ from a cold run's", i)
		}
	}
}

// TestDiskCacheDeterministic: cold runs of one design into fresh cache
// directories write identical directories: the same two entries, byte
// for byte.
func TestDiskCacheDeterministic(t *testing.T) {
	var want map[string]string
	var wantBytes int64
	for run := 0; run < 10; run++ {
		dir := t.TempDir()
		res, err := NewSession(Options{CacheDir: dir}).Extract(editableChip(false))
		if err != nil {
			t.Fatal(err)
		}
		got := dirContents(t, dir)
		if run == 0 {
			want, wantBytes = got, res.Counters.DiskBytes
			continue
		}
		if res.Counters.DiskBytes != wantBytes {
			t.Fatalf("run %d: DiskBytes %d, first run %d", run, res.Counters.DiskBytes, wantBytes)
		}
		if len(got) != len(want) {
			t.Fatalf("run %d wrote %d files, first run %d", run, len(got), len(want))
		}
		for name, raw := range want {
			if got[name] != raw {
				t.Fatalf("run %d: %s differs from the first run's", run, name)
			}
		}
	}
}

// copyDir copies the files of src into a fresh temporary directory and
// returns it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, raw := range dirContents(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// dirContents maps each file name in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, de := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = string(raw)
	}
	return out
}

// TestDiskCacheWarmStart: a brand-new session pointed at a directory a
// previous session populated answers the whole design from disk —
// no sweeps, no composes — with byte-identical flat and hierarchical
// output. An edited design misses and is extracted cold.
func TestDiskCacheWarmStart(t *testing.T) {
	dir := t.TempDir()
	f := editableChip(false)

	cold, err := NewSession(Options{CacheDir: dir}).Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Counters.DiskHits != 0 {
		t.Fatalf("cold run hit the empty cache: %+v", cold.Counters)
	}
	if cold.Counters.DiskBytes <= 0 {
		t.Fatalf("cold run persisted nothing: %+v", cold.Counters)
	}
	if n := len(dirContents(t, dir)); n != 2 {
		t.Fatalf("cold run wrote %d files, want the design's two entries", n)
	}

	warm, err := NewSession(Options{CacheDir: dir}).Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	c := warm.Counters
	if c.DiskHits == 0 {
		t.Fatalf("warm process missed the cache: %+v", c)
	}
	if c.LeafSweeps != 0 || c.FlatCalls != 0 || c.ComposeCalls != 0 {
		t.Fatalf("warm process recomputed: %+v", c)
	}
	if got, want := flatWirelist(t, warm), flatWirelist(t, cold); got != want {
		t.Fatal("warm flat wirelist differs from cold")
	}
	if got, want := hierWirelist(t, warm), hierWirelist(t, cold); got != want {
		t.Fatal("warm hierarchical wirelist differs from cold")
	}

	// A third process editing one cell: its design has another key, so
	// it misses the one whole-result entry it looks for and extracts
	// cold.
	edited, err := NewSession(Options{CacheDir: dir}).Extract(editableChip(true))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Extract(editableChip(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := edited.Counters; c.DiskMisses != 1 || c.DiskHits != 0 {
		t.Fatalf("edited run: %d disk misses and %d hits, want 1 and 0 (%+v)", c.DiskMisses, c.DiskHits, c)
	}
	if edited.Counters.LeafSweeps != ref.Counters.LeafSweeps {
		t.Fatalf("edited run swept %d leaves, cold %d", edited.Counters.LeafSweeps, ref.Counters.LeafSweeps)
	}
	if got, want := flatWirelist(t, edited), flatWirelist(t, ref); got != want {
		t.Fatal("edited warm flat wirelist differs from cold reference")
	}
}

// TestDiskKeyOptions: the options that change what an extraction
// computes — the effective leaf cap and the fracture strategy — are part
// of the disk tier's keys, so a directory filled under one setting never
// serves another's bytes, and every session writes its own cold run's
// flat and hierarchical bytes.
func TestDiskKeyOptions(t *testing.T) {
	dir := t.TempDir()
	f := editableChip(false)
	small := Options{MaxLeafItems: 4}
	for _, step := range []struct {
		name string
		opt  Options
		hit  bool
	}{
		{"fill leaf cap 4", small, false},
		{"default", Options{}, false},
		{"leaf cap 4 again", small, true},
		{"explicit default cap", Options{MaxLeafItems: 2000}, true},
		{"min-cut fracture", Options{Fracture: FractureMinCut}, false},
	} {
		cold, err := Extract(f, step.opt)
		if err != nil {
			t.Fatal(err)
		}
		opt := step.opt
		opt.CacheDir = dir
		res, err := NewSession(opt).Extract(f)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := 0, 1
		if step.hit {
			hits, misses = 1, 0
		}
		if c := res.Counters; c.DiskHits != hits || c.DiskMisses != misses {
			t.Fatalf("%s: %d disk hits and %d misses, want %d and %d", step.name, c.DiskHits, c.DiskMisses, hits, misses)
		}
		if flatWirelist(t, res) != flatWirelist(t, cold) {
			t.Fatalf("%s: flat bytes differ from a cold run's", step.name)
		}
		if hierWirelist(t, res) != hierWirelist(t, cold) {
			t.Fatalf("%s: hierarchical bytes differ from a cold run's", step.name)
		}
	}
	// The leaf cap changes the bytes, so the check above can tell the
	// two settings' entries apart.
	def, err := Extract(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Extract(f, small)
	if err != nil {
		t.Fatal(err)
	}
	if flatWirelist(t, def) == flatWirelist(t, capped) || hierWirelist(t, def) == hierWirelist(t, capped) {
		t.Fatal("the leaf cap does not change this design's bytes")
	}
}

// TestDiskByteIdentity is the acceptance matrix: cold / warm / edit
// paths at cache {off, mem, disk} all produce the reference flat and
// hierarchical bytes: a cold DisableMemo run's for the off row, whose
// windows are never shared, and a cold run's for the others. The
// subtests keep their workers=1 suffix: it names the one serial back
// end.
func TestDiskByteIdentity(t *testing.T) {
	baseRef, err := Extract(editableChip(false), Options{DisableMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	editRef, err := Extract(editableChip(true), Options{DisableMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	wantBase := flatWirelist(t, baseRef)
	wantEdit := flatWirelist(t, editRef)
	if wantBase == wantEdit {
		t.Fatal("edit did not change the design")
	}
	hierBase, err := Extract(editableChip(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	hierEdit, err := Extract(editableChip(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantHierBase := hierWirelist(t, hierBase)
	wantHierEdit := hierWirelist(t, hierEdit)
	offHierBase := hierWirelist(t, baseRef)
	offHierEdit := hierWirelist(t, editRef)

	for _, cache := range []string{"off", "mem", "disk"} {
		t.Run(fmt.Sprintf("cache=%s/workers=1", cache), func(t *testing.T) {
			var opt Options
			hierBase, hierEdit := wantHierBase, wantHierEdit
			switch cache {
			case "off":
				opt.DisableMemo = true
				hierBase, hierEdit = offHierBase, offHierEdit
			case "disk":
				opt.CacheDir = t.TempDir()
			}
			s := NewSession(opt)
			cold, err := s.Extract(editableChip(false))
			if err != nil {
				t.Fatal(err)
			}
			if got := flatWirelist(t, cold); got != wantBase {
				t.Fatal("cold bytes differ")
			}
			if hierWirelist(t, cold) != hierBase {
				t.Fatal("cold hierarchical bytes differ")
			}
			// Warm: for the disk config a *fresh* session on the same
			// directory (a new process); otherwise the same session.
			ws := s
			if cache == "disk" {
				ws = NewSession(opt)
			}
			warm, err := ws.Extract(editableChip(false))
			if err != nil {
				t.Fatal(err)
			}
			if got := flatWirelist(t, warm); got != wantBase {
				t.Fatal("warm bytes differ")
			}
			if hierWirelist(t, warm) != hierBase {
				t.Fatal("warm hierarchical bytes differ")
			}
			edit, err := ws.Apply(editOneCell())
			if err != nil {
				t.Fatal(err)
			}
			if got := flatWirelist(t, edit); got != wantEdit {
				t.Fatal("edit bytes differ")
			}
			if hierWirelist(t, edit) != hierEdit {
				t.Fatal("edit hierarchical bytes differ")
			}
		})
	}
}

// editOneCell is the Session.Apply form of editableChip(true)'s
// change: redefine the row symbol so cell 3 calls the 2-input gate.
// It rebuilds the row's items from the edited design so the edit and
// the from-scratch parse stay in lockstep.
func editOneCell() Edit {
	edited := editableChip(true)
	// The row symbol is the one whose items call two distinct symbols.
	for id, sym := range edited.Symbols {
		calls := map[int]bool{}
		for _, it := range sym.Items {
			if it.Kind == cif.ItemCall {
				calls[it.SymbolID] = true
			}
		}
		if len(sym.Items) == 8 && len(calls) == 2 {
			return Edit{SymbolID: id, Items: sym.Items, Name: sym.Name}
		}
	}
	panic("row symbol not found in edited design")
}

// TestSessionApply covers the edit API itself: results match a fresh
// extraction of the edited design, the session reuses prior windows,
// and invalid edits are rejected.
func TestSessionApply(t *testing.T) {
	s := NewSession(Options{})
	if _, err := s.Apply(Edit{Top: true}); err == nil {
		t.Fatal("Apply before Extract accepted")
	}
	if _, err := s.Extract(editableChip(false)); err != nil {
		t.Fatal(err)
	}

	res, err := s.Apply(editOneCell())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Extract(editableChip(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flatWirelist(t, res), flatWirelist(t, fresh); got != want {
		t.Fatal("Apply bytes differ from fresh extraction of the edited design")
	}
	if res.Counters.UniqueWindows >= fresh.Counters.UniqueWindows {
		t.Fatalf("Apply re-analysed everything: %d vs fresh %d",
			res.Counters.UniqueWindows, fresh.Counters.UniqueWindows)
	}
	if res.Counters.SessionHits == 0 {
		t.Fatalf("Apply reused no prior windows: %+v", res.Counters)
	}

	// The session now tracks the edited design: applying a no-op edit
	// must be a full warm hit.
	again, err := s.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if again.Counters.FlatCalls != 0 || again.Counters.ComposeCalls != 0 {
		t.Fatalf("no-op Apply did work: %+v", again.Counters)
	}

	// Invalid edits: deleting a symbol that is still called, deleting
	// an unknown symbol, and a replacement that calls an undefined
	// symbol must all fail without disturbing the session.
	for id, sym := range s.Design().Symbols {
		called := false
		for _, other := range s.Design().Symbols {
			for _, it := range other.Items {
				if it.Kind == cif.ItemCall && it.SymbolID == id {
					called = true
				}
			}
		}
		if called {
			if _, err := s.Apply(Edit{SymbolID: id, Delete: true}); err == nil {
				t.Fatalf("deleting still-called symbol %d (%s) accepted", id, sym.Name)
			}
			break
		}
	}
	if _, err := s.Apply(Edit{SymbolID: 99999, Delete: true}); err == nil {
		t.Fatal("deleting unknown symbol accepted")
	}
	if _, err := s.Apply(Edit{SymbolID: 500, Items: []cif.Item{
		{Kind: cif.ItemCall, SymbolID: 98765, Trans: geom.Identity},
	}}); err == nil {
		t.Fatal("edit introducing a dangling call accepted")
	}
	after, err := s.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flatWirelist(t, after), flatWirelist(t, fresh); got != want {
		t.Fatal("failed edits disturbed the session state")
	}
}

// TestHextCorruptionSweep corrupts the cache directory between runs in
// every shape the robustness contract names. Each case must fall back
// to recompute with byte-identical output, quarantine the damaged
// entries, and never panic.
func TestHextCorruptionSweep(t *testing.T) {
	ref, err := Extract(editableChip(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := flatWirelist(t, ref)

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string, raw []byte)
	}{
		{"zero-length", func(t *testing.T, p string, raw []byte) {
			if err := os.WriteFile(p, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, p string, raw []byte) {
			if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", func(t *testing.T, p string, raw []byte) {
			raw[len(raw)/2] ^= 0x20
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong-version", func(t *testing.T, p string, raw []byte) {
			binary.LittleEndian.PutUint32(raw[4:], 0xDEAD)
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage-payload", func(t *testing.T, p string, raw []byte) {
			// A well-formed container holding an undecodable payload:
			// verification passes, the codec must reject and quarantine.
			keyLen := binary.LittleEndian.Uint32(raw[8:])
			key := string(raw[16 : 16+keyLen])
			s, err := store.Open(filepath.Dir(p), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(key, bytes.Repeat([]byte{0xFF}, 64)); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := NewSession(Options{CacheDir: dir}).Extract(editableChip(false)); err != nil {
				t.Fatal(err)
			}
			entries, err := filepath.Glob(filepath.Join(dir, "*.e"))
			if err != nil || len(entries) == 0 {
				t.Fatalf("no cache entries written: %v", err)
			}
			for _, p := range entries {
				raw, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				tc.corrupt(t, p, raw)
			}
			res, err := NewSession(Options{CacheDir: dir}).Extract(editableChip(false))
			if err != nil {
				t.Fatal(err)
			}
			if got := flatWirelist(t, res); got != want {
				t.Fatal("corrupt cache changed the output bytes")
			}
			if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bad) == 0 {
				t.Fatal("no entries were quarantined")
			}
			// The run recomputed and re-stored; a third session must be
			// fully warm again.
			again, err := NewSession(Options{CacheDir: dir}).Extract(editableChip(false))
			if err != nil {
				t.Fatal(err)
			}
			if again.Counters.LeafSweeps != 0 {
				t.Fatalf("cache did not recover: %+v", again.Counters)
			}
			if got := flatWirelist(t, again); got != want {
				t.Fatal("recovered cache changed the output bytes")
			}
		})
	}
}

// TestHextEntryCorruptionHier damages one entry of a cold cache
// directory at a time and requires a fresh session's flat and
// hierarchical bytes to equal a cold run's. A damaged whole result is a
// miss and is recomputed; a damaged hierarchical wirelist (the
// "window-tree" entry: the window DAG's serialization) is extracted
// again when hierarchical output asks for it. Either way the bad entry
// is retired and replaced, so the next process reads both entries
// cleanly.
func TestHextEntryCorruptionHier(t *testing.T) {
	damages := []struct {
		name   string
		damage func(t *testing.T, dir, path string, raw []byte)
	}{
		{"bit-flip", func(t *testing.T, _, p string, raw []byte) {
			raw[len(raw)/2] ^= 0x20
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"undecodable", func(t *testing.T, dir, _ string, raw []byte) {
			// The container verifies; the payload does not decode.
			keyLen := binary.LittleEndian.Uint32(raw[8:])
			s, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(string(raw[16:16+keyLen]), []byte{0xFF, 0x01}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, design := range []struct {
		name string
		file *cif.File
	}{
		{"editable", editableChip(false)},
		{"memory", gen.Memory(4, 4).File},
	} {
		cold, err := Extract(design.file, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantFlat, wantHier := flatWirelist(t, cold), hierWirelist(t, cold)
		src := t.TempDir()
		if _, err := NewSession(Options{CacheDir: src}).Extract(design.file); err != nil {
			t.Fatal(err)
		}
		for name, raw := range dirContents(t, src) {
			entry := name
			if key := raw[16:]; strings.HasPrefix(key, "f:") {
				entry = "whole-result"
			} else if strings.HasPrefix(key, "w:") {
				entry = "window-tree"
			}
			for _, d := range damages {
				t.Run(design.name+"/"+entry+"/"+d.name, func(t *testing.T) {
					dir := copyDir(t, src)
					p := filepath.Join(dir, name)
					raw, err := os.ReadFile(p)
					if err != nil {
						t.Fatal(err)
					}
					d.damage(t, dir, p, raw)
					for run := 0; run < 2; run++ {
						res, err := NewSession(Options{CacheDir: dir}).Extract(design.file)
						if err != nil {
							t.Fatal(err)
						}
						if flatWirelist(t, res) != wantFlat {
							t.Fatalf("run %d: flat bytes differ from cold", run)
						}
						var buf bytes.Buffer
						if err := res.WriteHierarchical(&buf); err != nil {
							t.Fatalf("run %d: %v", run, err)
						}
						if buf.String() != wantHier {
							t.Fatalf("run %d: hierarchical bytes differ from cold", run)
						}
					}
					s, err := store.Open(dir, store.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if errs := s.VerifyAll(); len(errs) != 0 {
						t.Fatalf("damage left in the store: %v", errs)
					}
					if n, _ := s.Stats(); n != 2 {
						t.Fatalf("%d live entries, want 2", n)
					}
				})
			}
		}
	}
}

// TestOldCacheDirs reads cache directories written by earlier versions
// of the disk tier. Two hold entries under keys this version never
// reads: a window tree for every window of two or more leaf instances
// and an "s:" entry for every leaf sweep, the tree of a one-leaf design
// embedded in its whole-result entry, payload version 1 trees, whose
// records carry memo keys, and version 1 whole results, which hold
// warning strings, all under keys that name no options. Their first run
// misses, extracts and writes the design's two entries, which the
// second run reads; the entries this version does not read are left
// alone. The third, tree-v2, holds the two entries of the version
// before this one under this version's keys: a whole result this
// version reads and a binary window tree (payload version 2) it does
// not. Its first run is a whole-result hit whose hierarchical output
// quarantines the tree, extracts again and stores the wirelist, which
// the second run reads. Every run writes a cold run's flat and
// hierarchical bytes.
func TestOldCacheDirs(t *testing.T) {
	for _, tc := range []struct {
		dir     string
		file    *cif.File
		hitFlat bool // the first run reads the whole result
	}{
		{"editable", editableChip(false), false},
		{"inverter", gen.Inverter(), false},
		{"tree-v2", editableChip(false), true},
	} {
		t.Run(tc.dir, func(t *testing.T) {
			cold, err := Extract(tc.file, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Open and Get write to the directory (recovery, quarantine,
			// access times), so the runs use a copy.
			dir := copyDir(t, filepath.Join("testdata", "oldcache", tc.dir))
			for run := 0; run < 2; run++ {
				res, err := NewSession(Options{CacheDir: dir}).Extract(tc.file)
				if err != nil {
					t.Fatal(err)
				}
				hits := run
				if tc.hitFlat {
					hits = 1
				}
				if c := res.Counters; c.DiskHits != hits || c.DiskMisses != 1-hits {
					t.Fatalf("run %d: want %d disk hits and %d misses: %+v", run, hits, 1-hits, c)
				}
				if flatWirelist(t, res) != flatWirelist(t, cold) {
					t.Fatalf("run %d: flat bytes differ from cold", run)
				}
				var buf bytes.Buffer
				if err := res.WriteHierarchical(&buf); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if buf.String() != hierWirelist(t, cold) {
					t.Fatalf("run %d: hierarchical bytes differ from cold", run)
				}
				if !tc.hitFlat {
					continue
				}
				// The first run quarantines the version 2 tree; the
				// second reads the wirelist stored in its place and
				// quarantines nothing.
				if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bad) != 1 {
					t.Fatalf("run %d: %d quarantined entries, want the tree's 1", run, len(bad))
				}
			}
			if !tc.hitFlat {
				return
			}
			s, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if errs := s.VerifyAll(); len(errs) != 0 {
				t.Fatalf("damage left in the store: %v", errs)
			}
			if n, _ := s.Stats(); n != 2 {
				t.Fatalf("%d live entries, want 2", n)
			}
		})
	}
}

// TestDiskConcurrentSessions: goroutine-level half of the shared-dir
// contract (the cross-process half is in the cmd smoke test). Several
// sessions race on one directory, cold and warm, under -race.
func TestDiskConcurrentSessions(t *testing.T) {
	dir := t.TempDir()
	ref, err := Extract(editableChip(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := flatWirelist(t, ref)

	var wg sync.WaitGroup
	outs := make([]string, 4)
	errs := make([]error, 4)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := NewSession(Options{CacheDir: dir}).Extract(editableChip(false))
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			errs[i] = res.WriteHierarchical(&buf)
			_ = buf // renders res.top or the stored wirelist; flat bytes are compared below
			outs[i] = flatWirelistString(res)
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if outs[i] != want {
			t.Fatalf("session %d produced different bytes", i)
		}
	}
}

func flatWirelistString(res *Result) string {
	var buf bytes.Buffer
	_ = wirelist.Write(&buf, res.Netlist, wirelist.Options{})
	return buf.String()
}
