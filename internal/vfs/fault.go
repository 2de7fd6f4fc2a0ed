package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"syscall"
	"time"
)

// Op names one class of filesystem operation, for fault targeting and
// counting. File-level operations (read, write, sync, close) count
// against the FS that opened the file.
type Op uint8

const (
	OpOpen Op = iota
	OpCreate
	OpCreateTemp
	OpReadFile
	OpRename
	OpRemove
	OpStat
	OpReadDir
	OpMkdirAll
	OpChtimes
	OpSyncDir
	OpRead
	OpReadAt
	OpWrite
	OpSync
	OpClose
	numOps
)

var opNames = [numOps]string{
	"open", "create", "createtemp", "readfile", "rename", "remove",
	"stat", "readdir", "mkdirall", "chtimes", "syncdir",
	"read", "readat", "write", "sync", "close",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// mutating reports whether an op changes the filesystem — the set a
// power cut freezes. Close is deliberately not mutating: a frozen
// writer can still release its descriptors.
func (o Op) mutating() bool {
	switch o {
	case OpCreate, OpCreateTemp, OpRename, OpRemove, OpMkdirAll,
		OpChtimes, OpSyncDir, OpWrite, OpSync:
		return true
	}
	return false
}

// Injected faults carry these sentinels so tests can classify them.
var (
	// ErrInjected is the generic injected filesystem fault.
	ErrInjected = errors.New("vfs: injected fault")

	// ErrPowerCut marks operations refused after PowerCut: the disk is
	// gone; nothing written after this point exists.
	ErrPowerCut = errors.New("vfs: power cut: writes frozen")

	// ErrNoSpace is an injected full-disk error. It wraps ENOSPC, so
	// errors.Is(err, syscall.ENOSPC) holds — the same check production
	// code uses for the real thing.
	ErrNoSpace = fmt.Errorf("vfs: injected full disk: %w", syscall.ENOSPC)
)

// IsNoSpace reports whether err is a full-disk condition (real or
// injected).
func IsNoSpace(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// FaultFS wraps an FS with deterministic fault injection. Arm one or
// more faults, run the code under test, inspect the counters:
//
//	ffs := vfs.NewFault(vfs.OS)
//	ffs.FailOnce(3, vfs.ErrNoSpace)  // the 3rd op from now fails
//	ffs.FailFrom(1, vfs.ErrInjected) // every op from the next on fails
//	ffs.FailOps(vfs.OpSync)          // …but only syncs are counted/failed
//	ffs.TornWrite(10)                // a failing write persists 10 bytes first
//	ffs.LieSync(true)                // fsync reports success without syncing
//	ffs.PowerCut()                   // all further mutating ops fail
//
// Every method is safe for concurrent use. Fault checks count ops in
// arrival order, so a single-goroutine caller sees fully deterministic
// firing.
type FaultFS struct {
	inner FS

	mu       sync.Mutex
	n        int64 // ops counted so far (post-filter)
	counts   [numOps]int64
	failAt   int64 // 1-based op index (counting from arming) that fails
	failFrom bool  // failAt fails every op from index on, not just one
	failErr  error
	armed    int64       // op count when the fault was armed
	only     map[Op]bool // nil: every op counts
	tornK    int         // -1: fail cleanly; >=0: failing writes persist K bytes
	lieSync  bool
	lies     int64
	power    bool
}

// NewFault wraps inner (usually OS) with fault injection. With no
// faults armed it is transparent but still counts operations.
func NewFault(inner FS) *FaultFS {
	return &FaultFS{inner: inner, tornK: -1}
}

// FailOnce arms a single-shot fault: the nth counted operation from
// now (1-based) returns err. Passing err == nil clears the fault.
func (f *FaultFS) FailOnce(n int64, err error) {
	f.mu.Lock()
	f.failAt, f.failErr, f.failFrom, f.armed = n, err, false, f.n
	f.mu.Unlock()
}

// FailFrom arms a persistent fault: every counted operation from the
// nth on (1-based, counted from now) returns err.
func (f *FaultFS) FailFrom(n int64, err error) {
	f.mu.Lock()
	f.failAt, f.failErr, f.failFrom, f.armed = n, err, true, f.n
	f.mu.Unlock()
}

// FailOps restricts counting (and so failing) to the given op classes;
// with none, every op counts again.
func (f *FaultFS) FailOps(ops ...Op) {
	f.mu.Lock()
	if len(ops) == 0 {
		f.only = nil
	} else {
		f.only = make(map[Op]bool, len(ops))
		for _, o := range ops {
			f.only[o] = true
		}
	}
	f.mu.Unlock()
}

// TornWrite makes a failing write persist exactly k bytes of its
// payload before reporting the armed error — the on-disk state of a
// write interrupted mid-stream. k < 0 restores clean failure.
func (f *FaultFS) TornWrite(k int) {
	f.mu.Lock()
	f.tornK = k
	f.mu.Unlock()
}

// LieSync makes Sync (and SyncDir) report success without syncing —
// the firmware-lies failure mode. Lies are counted.
func (f *FaultFS) LieSync(on bool) {
	f.mu.Lock()
	f.lieSync = on
	f.mu.Unlock()
}

// SyncLies reports how many syncs were skipped under LieSync.
func (f *FaultFS) SyncLies() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lies
}

// PowerCut freezes the filesystem: every further mutating operation
// fails with ErrPowerCut. Reads keep working — the disk's existing
// contents survive; nothing new lands.
func (f *FaultFS) PowerCut() {
	f.mu.Lock()
	f.power = true
	f.mu.Unlock()
}

// Restore clears every armed fault (but not the op counters).
func (f *FaultFS) Restore() {
	f.mu.Lock()
	f.failAt, f.failErr, f.failFrom = 0, nil, false
	f.only, f.tornK, f.lieSync, f.power = nil, -1, false, false
	f.mu.Unlock()
}

// Count reports how many operations of one class went through.
func (f *FaultFS) Count(op Op) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// check records one op and decides its fate: nil (proceed), or the
// injected error. For OpWrite it also returns how many payload bytes
// to persist before failing (-1: none).
func (f *FaultFS) check(op Op) (error, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	if f.power && op.mutating() {
		return ErrPowerCut, -1
	}
	if op == OpSync || op == OpSyncDir {
		if f.lieSync {
			f.lies++
			return errSyncLied, -1
		}
	}
	if f.only != nil && !f.only[op] {
		return nil, -1
	}
	f.n++
	if f.failErr == nil {
		return nil, -1
	}
	idx := f.n - f.armed // 1-based index since arming
	fire := false
	if f.failFrom {
		fire = idx >= f.failAt
	} else {
		fire = idx == f.failAt
	}
	if !fire {
		return nil, -1
	}
	if op == OpWrite {
		return f.failErr, f.tornK
	}
	return f.failErr, -1
}

// errSyncLied is internal: check returns it to tell the wrapper to
// skip the real sync and report success.
var errSyncLied = errors.New("vfs: sync lied")

func (f *FaultFS) Open(name string) (File, error) {
	if err, _ := f.check(OpOpen); err != nil {
		return nil, err
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) Create(name string) (File, error) {
	if err, _ := f.check(OpCreate); err != nil {
		return nil, err
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err, _ := f.check(OpCreateTemp); err != nil {
		return nil, err
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err, _ := f.check(OpReadFile); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err, _ := f.check(OpRename); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if err, _ := f.check(OpRemove); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if err, _ := f.check(OpStat); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err, _ := f.check(OpReadDir); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err, _ := f.check(OpMkdirAll); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) Chtimes(name string, atime, mtime time.Time) error {
	if err, _ := f.check(OpChtimes); err != nil {
		return err
	}
	return f.inner.Chtimes(name, atime, mtime)
}

func (f *FaultFS) SyncDir(dir string) error {
	err, _ := f.check(OpSyncDir)
	if err == errSyncLied {
		return nil
	}
	if err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile threads file-level operations back through the FaultFS.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Name() string               { return f.inner.Name() }
func (f *faultFile) Stat() (fs.FileInfo, error) { return f.inner.Stat() }

func (f *faultFile) Read(p []byte) (int, error) {
	if err, _ := f.fs.check(OpRead); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err, _ := f.fs.check(OpReadAt); err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultFile) Write(p []byte) (int, error) {
	err, torn := f.fs.check(OpWrite)
	if err != nil {
		// A torn write persists a prefix before dying — the state a
		// crash mid-write leaves on disk.
		if torn >= 0 {
			if torn > len(p) {
				torn = len(p)
			}
			n, werr := f.inner.Write(p[:torn])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	err, _ := f.fs.check(OpSync)
	if err == errSyncLied {
		return nil
	}
	if err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error {
	if err, _ := f.fs.check(OpClose); err != nil {
		return err
	}
	return f.inner.Close()
}

var (
	_ FS   = (*FaultFS)(nil)
	_ File = (*faultFile)(nil)
)
