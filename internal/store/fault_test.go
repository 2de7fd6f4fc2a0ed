package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ace/internal/vfs"
)

// openFault opens a store over a FaultFS in a fresh directory.
func openFault(t *testing.T, opt Options) (*Store, *vfs.FaultFS) {
	t.Helper()
	ffs := vfs.NewFault(vfs.OS)
	opt.FS = ffs
	s, err := Open(filepath.Join(t.TempDir(), "cache"), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, ffs
}

func TestPutIsDurable(t *testing.T) {
	// The documented guarantee is fsynced temp + rename + fsynced dir;
	// this pins the syncs actually happening, not just the rename.
	s, ffs := openFault(t, Options{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Count(vfs.OpSync); got < 1 {
		t.Errorf("Put issued %d file syncs, want >= 1", got)
	}
	if got := ffs.Count(vfs.OpSyncDir); got < 1 {
		t.Errorf("Put issued %d dir syncs, want >= 1", got)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestPutUsesPidStampedTemps(t *testing.T) {
	s, ffs := openFault(t, Options{})
	// Freeze the rename so the temp is observable.
	ffs.FailOps(vfs.OpRename)
	ffs.FailFrom(1, vfs.ErrInjected)
	if err := s.Put("k", []byte("v")); err == nil {
		t.Fatal("Put succeeded with rename frozen")
	}
	ffs.Restore()
	// The failed attempt cleans its temp; re-freeze only the remove to
	// catch the name mid-flight instead.
	ffs.FailOps(vfs.OpRename, vfs.OpRemove)
	ffs.FailFrom(1, vfs.ErrInjected)
	s.Put("k", []byte("v"))
	ffs.Restore()
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), vfs.TmpPrefix) {
			found = true
			if vfs.IsOrphanTemp(de.Name(), time.Now(), time.Now()) {
				t.Errorf("own live temp %q classified as orphan", de.Name())
			}
		}
	}
	if !found {
		t.Fatal("no temp observed with rename+remove frozen")
	}
}

func TestGetIOErrorCountsAndMisses(t *testing.T) {
	s, ffs := openFault(t, Options{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A pure miss is not an error.
	if _, ok := s.Get("absent"); ok {
		t.Fatal("absent key hit")
	}
	if got := s.IOCounters().GetErrors; got != 0 {
		t.Fatalf("plain miss counted as error: %d", got)
	}
	// An injected read failure is a miss plus a counted error.
	ffs.FailOps(vfs.OpReadFile)
	ffs.FailOnce(1, vfs.ErrInjected)
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get succeeded under injected read failure")
	}
	ffs.Restore()
	if got := s.IOCounters().GetErrors; got != 1 {
		t.Fatalf("GetErrors = %d, want 1", got)
	}
	// The entry was not harmed: the next read hits.
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get after restore = %q, %v", got, ok)
	}
	// The count accumulates: a second failed read counts again.
	ffs.FailOps(vfs.OpReadFile)
	ffs.FailOnce(1, vfs.ErrInjected)
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get succeeded under a second injected read failure")
	}
	ffs.Restore()
	if got := s.IOCounters().GetErrors; got != 2 {
		t.Fatalf("GetErrors = %d, want 2", got)
	}
}

func TestPutFaultMatrix(t *testing.T) {
	// Whichever single op of the publish fails, Put must return an
	// error, count it, leave no entry and no temp, and the next Put of
	// the same key must succeed and verify.
	ops := []vfs.Op{vfs.OpCreateTemp, vfs.OpWrite, vfs.OpSync, vfs.OpClose, vfs.OpRename}
	for _, op := range ops {
		t.Run(op.String(), func(t *testing.T) {
			s, ffs := openFault(t, Options{})
			ffs.FailOps(op)
			ffs.FailOnce(1, vfs.ErrInjected)
			err := s.Put("k", []byte("payload"))
			ffs.Restore()
			if !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("Put = %v, want injected", err)
			}
			if got := s.IOCounters().PutErrors; got != 1 {
				t.Fatalf("PutErrors = %d, want 1", got)
			}
			if _, ok := s.Get("k"); ok {
				t.Fatal("entry appeared despite failed Put")
			}
			ents, _ := os.ReadDir(s.Dir())
			for _, de := range ents {
				if strings.HasPrefix(de.Name(), vfs.TmpPrefix) {
					t.Fatalf("failed Put leaked temp %q", de.Name())
				}
			}
			if err := s.Put("k", []byte("payload")); err != nil {
				t.Fatalf("retry Put: %v", err)
			}
			if got, ok := s.Get("k"); !ok || string(got) != "payload" {
				t.Fatalf("Get after retry = %q, %v", got, ok)
			}
		})
	}
}

func TestPutTornWriteNeverPublishes(t *testing.T) {
	// A write torn at byte k dies inside the temp; the destination name
	// must never carry a partial entry.
	for _, k := range []int{0, 1, 3, 7} {
		s, ffs := openFault(t, Options{})
		ffs.FailOps(vfs.OpWrite)
		ffs.FailOnce(1, vfs.ErrInjected)
		ffs.TornWrite(k)
		if err := s.Put("k", []byte("payload")); err == nil {
			t.Fatalf("k=%d: torn Put succeeded", k)
		}
		ffs.Restore()
		if _, ok := s.Get("k"); ok {
			t.Fatalf("k=%d: torn entry served", k)
		}
		if errs := s.VerifyAll(); len(errs) != 0 {
			t.Fatalf("k=%d: store dirty after torn write: %v", k, errs)
		}
	}
}

func TestPutENOSPCRetriesAfterGC(t *testing.T) {
	old := enospcBackoff
	enospcBackoff = 0
	defer func() { enospcBackoff = old }()

	s, ffs := openFault(t, Options{})
	ffs.FailOps(vfs.OpWrite)
	ffs.FailOnce(1, vfs.ErrNoSpace)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put with transient ENOSPC = %v, want recovered nil", err)
	}
	io := s.IOCounters()
	if io.ENOSPCRetries != 1 {
		t.Fatalf("ENOSPCRetries = %d, want 1", io.ENOSPCRetries)
	}
	if io.PutErrors != 0 {
		t.Fatalf("PutErrors = %d for a recovered Put", io.PutErrors)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get after ENOSPC recovery = %q, %v", got, ok)
	}

	// A persistently full disk gives up after the one retry.
	ffs.FailOps(vfs.OpWrite)
	ffs.FailFrom(1, vfs.ErrNoSpace)
	err := s.Put("k2", []byte("v2"))
	ffs.Restore()
	if !vfs.IsNoSpace(err) {
		t.Fatalf("Put on full disk = %v, want ENOSPC", err)
	}
	io = s.IOCounters()
	if io.ENOSPCRetries != 2 || io.PutErrors != 1 {
		t.Fatalf("counters after full disk: %+v", io)
	}
}

func TestPowerCutFreezesWritesNotReads(t *testing.T) {
	s, ffs := openFault(t, Options{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	ffs.PowerCut()
	if err := s.Put("k2", []byte("v2")); !errors.Is(err, vfs.ErrPowerCut) {
		t.Fatalf("Put after power cut = %v", err)
	}
	// Reads still work — but the LRU touch (Chtimes) is also frozen,
	// which must not fail the Get.
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get after power cut = %q, %v", got, ok)
	}
	if _, ok := s.Get("k2"); ok {
		t.Fatal("unpublished entry served after power cut")
	}
}

func TestLyingFsyncStillServesCorrectBytes(t *testing.T) {
	s, ffs := openFault(t, Options{})
	ffs.LieSync(true)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put under lying fsync = %v", err)
	}
	if ffs.SyncLies() == 0 {
		t.Fatal("no sync was lied about")
	}
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestOpenRecoversCrashDebris(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A healthy entry, written by a previous clean process.
	pre, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.Put("good", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Crash debris: a dead writer's temp and a structurally torn entry
	// (shorter than header+checksum — a lying-fsync artifact).
	orphan := filepath.Join(dir, vfs.TmpPrefix+"999999999-x")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "00deadbeef00dead.e")
	if err := os.WriteFile(torn, []byte("ACST"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	io := s.IOCounters()
	if io.OrphansSwept != 1 {
		t.Errorf("OrphansSwept = %d, want 1", io.OrphansSwept)
	}
	if io.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", io.Quarantined)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("orphan temp survived Open: %v", err)
	}
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("torn entry still live after Open: %v", err)
	}
	if _, err := os.Stat(strings.TrimSuffix(torn, ".e") + badExt); err != nil {
		t.Errorf("torn entry not quarantined: %v", err)
	}
	if got, ok := s.Get("good"); !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("healthy entry lost in recovery: %q, %v", got, ok)
	}
	if errs := s.VerifyAll(); len(errs) != 0 {
		t.Fatalf("store dirty after recovery: %v", errs)
	}
}

func TestOpenLeavesLiveWriterTemps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Our own pid is alive: a concurrent writer in this process (or a
	// sibling sharing the directory) must not lose its in-flight temp.
	live := filepath.Join(dir, vfs.TempPattern())
	live = strings.ReplaceAll(live, "*", "inflight")
	if err := os.WriteFile(live, []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.IOCounters().OrphansSwept; got != 0 {
		t.Fatalf("swept %d live temps", got)
	}
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("live writer's temp removed: %v", err)
	}
}
