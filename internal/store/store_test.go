package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t, Options{})
	keys := []string{"", "k", strings.Repeat("long-key-", 100), "bin\x00\xff key"}
	for i, k := range keys {
		payload := bytes.Repeat([]byte{byte(i), 0xA5}, 100+i)
		if _, ok := s.Get(k); ok {
			t.Fatalf("hit before put: %q", k)
		}
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("round trip failed for %q", k)
		}
		if !s.Has(k) {
			t.Fatalf("Has false after Put: %q", k)
		}
	}
	if n, b := s.Stats(); n != len(keys) || b == 0 {
		t.Fatalf("stats: %d entries %d bytes", n, b)
	}
}

func TestOverwrite(t *testing.T) {
	s := open(t, Options{})
	if err := s.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("new payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "new payload" {
		t.Fatalf("got %q %v", got, ok)
	}
}

// TestHashCollision simulates two keys sharing one file name (a
// 64-bit hash collision): whichever entry is on disk, the other key
// must miss — full-key verification, never a wrong payload. The
// mismatch is benign, so the entry must NOT be quarantined.
func TestHashCollision(t *testing.T) {
	s := open(t, Options{})
	if err := s.Put("keyA", []byte("payloadA")); err != nil {
		t.Fatal(err)
	}
	// Force the collision: copy keyA's file onto keyB's name.
	raw, err := os.ReadFile(s.path("keyA"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path("keyB"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("keyB"); ok {
		t.Fatal("keyB returned keyA's payload")
	}
	if got, ok := s.Get("keyA"); !ok || string(got) != "payloadA" {
		t.Fatalf("keyA lost: %q %v", got, ok)
	}
}

// TestCorruptionSweep damages a stored entry every way the robustness
// contract names — zero-length, truncated, bit-flipped (header, key,
// payload, checksum), wrong version, wrong magic, short garbage — and
// asserts each one reads back as a miss, is quarantined, and a fresh
// Put + Get recovers. Nothing may panic and nothing may return the
// wrong payload.
func TestCorruptionSweep(t *testing.T) {
	const key = "corruption-victim"
	payload := bytes.Repeat([]byte("payload!"), 64)

	good := func(t *testing.T) (*Store, string) {
		s := open(t, Options{})
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		return s, s.path(key)
	}
	raw := func(t *testing.T, p string) []byte {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T, p string)
	}{
		{"zero-length", func(t *testing.T, p string) {
			if err := os.WriteFile(p, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-header", func(t *testing.T, p string) {
			b := raw(t, p)
			if err := os.WriteFile(p, b[:7], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-payload", func(t *testing.T, p string) {
			b := raw(t, p)
			if err := os.WriteFile(p, b[:len(b)-20], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip-header", func(t *testing.T, p string) {
			b := raw(t, p)
			b[9] ^= 0x40 // key length
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip-key", func(t *testing.T, p string) {
			b := raw(t, p)
			b[headerSize+2] ^= 0x01
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip-payload", func(t *testing.T, p string) {
			b := raw(t, p)
			b[headerSize+len(key)+10] ^= 0x80
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip-checksum", func(t *testing.T, p string) {
			b := raw(t, p)
			b[len(b)-1] ^= 0x01
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong-version", func(t *testing.T, p string) {
			b := raw(t, p)
			binary.LittleEndian.PutUint32(b[4:], formatVersion+7)
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong-magic", func(t *testing.T, p string) {
			b := raw(t, p)
			copy(b, "NOPE")
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"short-garbage", func(t *testing.T, p string) {
			if err := os.WriteFile(p, []byte{1, 2, 3}, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, p := good(t)
			tc.corrupt(t, p)
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry returned payload %q", got)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry still live: %v", err)
			}
			if bad, _ := filepath.Glob(filepath.Join(s.Dir(), "*"+badExt)); len(bad) != 1 {
				// quarantine falls back to remove; either way the entry
				// must be gone, but the rename path should normally win.
				t.Logf("quarantine produced %d .bad files", len(bad))
			}
			// Recovery: recompute, store, read back.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatal("recovery Put/Get failed")
			}
		})
	}
}

// TestGCEvictsLRU fills a tiny store past its cap and checks the
// least-recently-touched entries go first while recently-read ones
// survive.
func TestGCEvictsLRU(t *testing.T) {
	payload := bytes.Repeat([]byte{0xEE}, 2048)
	s := open(t, Options{MaxBytes: 16 * 1024})
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh key-0 so key-1 becomes the eviction candidate. The LRU
	// clock is file mtime; nudge it back for the untouched entries so
	// the ordering is unambiguous on coarse-mtime filesystems.
	for i := 1; i < 4; i++ {
		p := s.path(fmt.Sprintf("key-%d", i))
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		old := info.ModTime().Add(-time.Hour + time.Duration(i)*time.Minute)
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("key-0"); !ok {
		t.Fatal("key-0 missing before GC")
	}
	// Push past the cap; the Put-triggered GC should evict the stale
	// keys, oldest first, and keep the fresh ones.
	for i := 4; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	s.GC()
	if _, bytes := s.Stats(); bytes > 16*1024 {
		t.Fatalf("store above cap after GC: %d", bytes)
	}
	if _, ok := s.Get("key-1"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := s.Get("key-7"); !ok {
		t.Fatal("newest entry was evicted")
	}
}

// TestGCRemovesQuarantined: .bad files disappear on the next GC.
func TestGCRemovesQuarantined(t *testing.T) {
	s := open(t, Options{})
	if err := s.Put("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	p := s.path("k")
	if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("garbage hit")
	}
	if bad, _ := filepath.Glob(filepath.Join(s.Dir(), "*"+badExt)); len(bad) != 1 {
		t.Fatalf("expected one quarantined file, got %d", len(bad))
	}
	s.GC()
	if bad, _ := filepath.Glob(filepath.Join(s.Dir(), "*"+badExt)); len(bad) != 0 {
		t.Fatalf("quarantined files survived GC: %d", len(bad))
	}
}

// TestOversizedEntrySkipped: a payload bigger than half the cap is
// dropped rather than stored (it would evict everything else).
func TestOversizedEntrySkipped(t *testing.T) {
	s := open(t, Options{MaxBytes: 4096})
	if err := s.Put("big", bytes.Repeat([]byte{1}, 4000)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("big"); ok {
		t.Fatal("oversized entry was stored")
	}
}

// TestConcurrentAccess hammers one store from many goroutines mixing
// Put, Get, Has and GC; run under -race this is the in-process half
// of the shared-cache contract (the cross-process half lives in the
// cmd smoke test). Every Get must return either a miss or the exact
// payload for its key.
func TestConcurrentAccess(t *testing.T) {
	s := open(t, Options{MaxBytes: 1 << 20})
	payloadFor := func(k int) []byte {
		return bytes.Repeat([]byte{byte(k), byte(k >> 8)}, 128)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i) % 32
				key := fmt.Sprintf("key-%d", k)
				switch i % 4 {
				case 0:
					if err := s.Put(key, payloadFor(k)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 3:
					if i%40 == 3 {
						s.GC()
					}
					s.Has(key)
				default:
					if got, ok := s.Get(key); ok && !bytes.Equal(got, payloadFor(k)) {
						t.Errorf("key %s: wrong payload", key)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOpenBadDir: opening a path that cannot be a directory fails
// cleanly.
func TestOpenBadDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(f, "sub"), Options{}); err == nil {
		t.Fatal("dir under a regular file accepted")
	}
}

// TestVerifyAll: a clean store verifies silently; every class of
// damage is reported as a typed *CorruptError and quarantined so
// later Gets never consult the entry again.
func TestVerifyAll(t *testing.T) {
	s := open(t, Options{})
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if errs := s.VerifyAll(); len(errs) != 0 {
		t.Fatalf("clean store reported %v", errs)
	}

	// Flip a payload byte in one entry, truncate a second, and misfile
	// a third under a name its key does not hash to.
	flip := s.path("key-0")
	b, err := os.ReadFile(flip)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-12] ^= 0x01
	if err := os.WriteFile(flip, b, 0o644); err != nil {
		t.Fatal(err)
	}
	trunc := s.path("key-1")
	if err := os.Truncate(trunc, 9); err != nil {
		t.Fatal(err)
	}
	misfiled := filepath.Join(s.Dir(), strings.Repeat("ab", 8)+entryExt)
	if err := os.Rename(s.path("key-2"), misfiled); err != nil {
		t.Fatal(err)
	}

	errs := s.VerifyAll()
	if len(errs) != 3 {
		t.Fatalf("got %d errors, want 3: %v", len(errs), errs)
	}
	for _, err := range errs {
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *CorruptError", err)
		}
		if ce.Path == "" {
			t.Fatalf("corrupt error carries no path: %v", ce)
		}
	}
	for _, p := range []string{flip, trunc, misfiled} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("damaged entry %s not quarantined", p)
		}
	}
	// The quarantined entries are misses; the untouched one still hits.
	if _, ok := s.Get("key-0"); ok {
		t.Fatal("corrupt entry survived quarantine")
	}
	if _, ok := s.Get("key-3"); !ok {
		t.Fatal("healthy entry lost")
	}
	if errs := s.VerifyAll(); len(errs) != 0 {
		t.Fatalf("second sweep still dirty: %v", errs)
	}
}

// TestConcurrentCorruption drives readers against a corruptor: several
// goroutines loop Get on an entry while another repeatedly
// rewrites the file with damaged bytes and restores it. Every read
// must return either the exact original payload or a miss — never
// damaged bytes and never a panic (the -race CI run also proves the
// quarantine path is data-race-free against readers).
func TestConcurrentCorruption(t *testing.T) {
	s := open(t, Options{})
	const key = "contested"
	payload := bytes.Repeat([]byte("good-bytes."), 97)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	p := s.path(key)
	good, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, ok := s.Get(key)
				if ok && !bytes.Equal(got, payload) {
					t.Errorf("reader %d observed damaged payload", r)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 300; i++ {
			bad := append([]byte(nil), good...)
			switch i % 3 {
			case 0: // payload bit flip
				bad[headerSize+len(key)+i%len(payload)] ^= 0xFF
				_ = os.WriteFile(p, bad, 0o644)
			case 1: // truncation
				_ = os.WriteFile(p, bad[:headerSize+i%32], 0o644)
			case 2: // garbage
				_ = os.WriteFile(p, bytes.Repeat([]byte{byte(i)}, 64), 0o644)
			}
			// Restore: the readers quarantine the damage into a miss, so
			// re-publish the entry the way a recomputing caller would.
			if err := s.Put(key, payload); err != nil {
				t.Errorf("re-put: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatal("entry unreadable after the corruption storm")
	}
}
