// Package store is a persistent content-addressed result store: a
// directory of cache entries keyed by arbitrary strings, written
// atomically and verified exhaustively on the way back in. The
// hierarchical extractor uses it as the disk tier under its in-memory
// caches, so extraction results survive the process; identical keys
// computed by a later run (or a concurrent process sharing the
// directory) read the stored payload instead of recomputing.
//
// Guarantees:
//
//   - An entry is either fully present or absent, under any crash
//     point: writes are assembled in a pid-stamped temporary in the
//     same directory, fsynced, published with an atomic rename, and
//     the directory is fsynced so the rename itself survives a power
//     loss. Two processes racing on one key leave one winner and no
//     torn file; a kill -9 leaves at worst an orphaned temporary.
//   - Opening the store recovers from crashes: orphaned temporaries
//     whose writer is dead are swept, and structurally torn entries
//     (shorter than a header — only possible when an fsync lied) are
//     quarantined.
//   - A read can never return the wrong payload: the file carries a
//     magic number, a format version, the complete key and an FNV-64a
//     checksum over key and payload. Hash collisions in the file name,
//     stale schema versions, truncation and bit flips all fail
//     verification and degrade into a miss — the caller recomputes.
//   - A failed verification quarantines the entry (renames it to a
//     .bad file) so it is never consulted again; garbage collection
//     removes quarantined files first.
//   - The store is size-capped: when the directory grows past
//     Options.MaxBytes, the least-recently-used entries (by
//     modification time, refreshed on Get) are evicted until the
//     store fits again. A full disk (ENOSPC) triggers one immediate
//     GC and a retried publish before the Put is abandoned.
//
// Every operation is fail-open: I/O errors surface as misses (Get) or
// returned errors the caller may ignore (Put), and are distinguishable
// from plain misses through IOCounters. The store never panics on
// hostile directory contents.
package store

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/vfs"
)

// DefaultMaxBytes is the size cap applied when Options.MaxBytes is 0.
const DefaultMaxBytes = 256 << 20 // 256 MiB

// formatVersion is the on-disk entry schema. Bump it when the header
// layout changes; old entries then fail verification, are quarantined
// and are lazily replaced by fresh computes.
const formatVersion = 1

// magic marks a store entry file.
var magic = [4]byte{'A', 'C', 'S', 'T'}

// headerSize is magic + version + keyLen + payloadLen.
const headerSize = 4 + 4 + 4 + 4

// checksumSize is the trailing FNV-64a over key+payload.
const checksumSize = 8

// entryExt is the extension of live entries; quarantined entries get
// badExt and in-flight writes vfs.TmpPrefix.
const (
	entryExt  = ".e"
	badExt    = ".bad"
	tmpPrefix = vfs.TmpPrefix
)

// Options configures a Store.
type Options struct {
	// MaxBytes caps the directory's total size: 0 selects
	// DefaultMaxBytes, negative disables the cap. Eviction is
	// least-recently-used by file modification time.
	MaxBytes int64

	// FS is the filesystem the store runs on; nil selects vfs.OS.
	// Tests substitute a vfs.FaultFS to exercise the failure paths.
	FS vfs.FS
}

// IOCounters exposes the store's fail-open bookkeeping: how often the
// disk, as opposed to a plain cache miss, let a caller down.
type IOCounters struct {
	// GetErrors counts reads that failed for I/O reasons — the entry
	// may exist but could not be read. Plain absent-file misses are
	// not counted.
	GetErrors int64

	// PutErrors counts writes abandoned on I/O errors (after the
	// ENOSPC retry, when applicable).
	PutErrors int64

	// ENOSPCRetries counts Puts that hit a full disk and retried
	// after an emergency GC (whether or not the retry succeeded).
	ENOSPCRetries int64

	// Quarantined counts entries retired for failing verification.
	Quarantined int64

	// OrphansSwept counts abandoned temporaries removed, at Open and
	// during GC.
	OrphansSwept int64
}

// Store is one cache directory. All methods are safe for concurrent
// use by multiple goroutines, and the on-disk format is safe for
// concurrent use by multiple processes (atomic rename publication;
// eviction races degrade into misses).
type Store struct {
	dir      string
	maxBytes int64
	fs       vfs.FS

	getErrors     atomic.Int64
	putErrors     atomic.Int64
	enospcRetries atomic.Int64
	quarantined   atomic.Int64
	orphansSwept  atomic.Int64

	mu    sync.Mutex
	bytes int64 // approximate; < 0 until first sized; recomputed on GC
	puts  int   // puts since the last GC consideration
}

// Open creates (if needed) and opens a store directory, then runs
// crash recovery over it: abandoned ".tmp-*" files whose writer is
// dead are removed, and entry files too short to hold a header are
// quarantined. After Open returns, every live entry is structurally
// whole and every temporary belongs to a live writer.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	maxBytes := opt.MaxBytes
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	// The directory is not sized here: read-only openers (a warm
	// process) never pay for a full scan. The first Put sizes it
	// lazily so the cap can be enforced.
	s := &Store{dir: dir, maxBytes: maxBytes, fs: fsys, bytes: -1}
	s.recover()
	return s, nil
}

// recover is the crash-recovery sweep run by Open. Best-effort: a
// directory that cannot be listed degrades to an empty-looking store,
// never a failed Open.
func (s *Store) recover() {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	now := time.Now()
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			mtime := now
			if info, err := de.Info(); err == nil {
				mtime = info.ModTime()
			}
			if vfs.IsOrphanTemp(name, mtime, now) {
				if s.fs.Remove(filepath.Join(s.dir, name)) == nil {
					s.orphansSwept.Add(1)
				}
			}
		case strings.HasSuffix(name, entryExt):
			// A published entry shorter than its fixed framing cannot
			// verify and will never be read successfully; retire it now
			// so VerifyAll and Get agree the store is clean. (Possible
			// only when an fsync lied about durability before a crash.)
			info, err := de.Info()
			if err != nil {
				continue
			}
			if info.Size() < headerSize+checksumSize {
				s.quarantine(filepath.Join(s.dir, name))
			}
		}
	}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// IOCounters returns a snapshot of the store's disk-error bookkeeping.
func (s *Store) IOCounters() IOCounters {
	return IOCounters{
		GetErrors:     s.getErrors.Load(),
		PutErrors:     s.putErrors.Load(),
		ENOSPCRetries: s.enospcRetries.Load(),
		Quarantined:   s.quarantined.Load(),
		OrphansSwept:  s.orphansSwept.Load(),
	}
}

// path maps a key to its entry file: 16 hex digits of the key's
// FNV-64a hash. Collisions are legal — verification against the full
// key stored inside the file turns them into misses, and the last
// writer owns the name.
func (s *Store) path(key string) string {
	var h [8]byte
	binary.BigEndian.PutUint64(h[:], fnv64a(key, ""))
	return filepath.Join(s.dir, hex.EncodeToString(h[:])+entryExt)
}

// Get returns the payload stored under key, refreshing the entry's
// LRU position. Any verification failure — wrong magic, wrong
// version, wrong key, bad checksum, truncation — quarantines the file
// and reports a miss. I/O errors also report a miss (the caller
// recomputes) but bump IOCounters.GetErrors.
func (s *Store) Get(key string) ([]byte, bool) {
	p := s.path(key)
	raw, err := s.fs.ReadFile(p)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.getErrors.Add(1)
		}
		return nil, false
	}
	payload, err := verify(raw, key)
	if err != nil {
		s.quarantine(p)
		return nil, false
	}
	// LRU touch; best-effort (the entry may have been evicted by a
	// concurrent process between the read and the touch).
	now := time.Now()
	_ = s.fs.Chtimes(p, now, now)
	return payload, true
}

// Has reports whether an entry file exists under key's name without
// reading or verifying it. It is the cheap "probably stored already"
// check used to skip redundant Puts; a corrupt entry reporting true
// here is quarantined by the next Get and re-Put after that.
func (s *Store) Has(key string) bool {
	_, err := s.fs.Stat(s.path(key))
	return err == nil
}

// enospcBackoff is how long Put waits after an emergency GC before
// retrying a publish that hit a full disk — long enough for the
// filesystem to reclaim the freed blocks.
var enospcBackoff = 50 * time.Millisecond

// Put stores payload under key, atomically and durably: the entry is
// assembled in a pid-stamped temporary, fsynced, published with a
// rename, and the directory is fsynced. Entries larger than half the
// size cap are silently dropped (they would immediately evict the
// rest of the store). A full disk triggers one emergency GC and a
// retried publish with a short backoff; all other I/O errors abandon
// the Put, returning the error and bumping IOCounters.PutErrors.
func (s *Store) Put(key string, payload []byte) error {
	size := int64(headerSize + len(key) + len(payload) + checksumSize)
	if s.maxBytes > 0 && size > s.maxBytes/2 {
		return nil
	}
	err := s.putOnce(key, payload)
	if err != nil && vfs.IsNoSpace(err) {
		s.enospcRetries.Add(1)
		s.GC()
		time.Sleep(enospcBackoff)
		err = s.putOnce(key, payload)
	}
	if err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	if s.bytes < 0 {
		// First write through this handle: size the directory once (the
		// scan already includes the entry just published).
		s.bytes = s.scanBytes()
	} else {
		s.bytes += size
	}
	s.puts++
	runGC := s.maxBytes > 0 && s.bytes > s.maxBytes
	s.mu.Unlock()
	if runGC {
		s.GC()
	}
	return nil
}

// putOnce performs one atomic publish attempt.
func (s *Store) putOnce(key string, payload []byte) error {
	af, err := vfs.NewAtomicFile(s.fs, s.path(key))
	if err != nil {
		return err
	}
	defer af.Abort() // no-op after Commit
	var hdr [headerSize]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], formatVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
	var sum [checksumSize]byte
	binary.LittleEndian.PutUint64(sum[:], fnv64a(key, string(payload)))
	for _, b := range [][]byte{hdr[:], []byte(key), payload, sum[:]} {
		if _, err := af.Write(b); err != nil {
			return err
		}
	}
	return af.Commit()
}

// CorruptError reports a store entry that failed verification: bad
// magic, a stale format version, truncation, a key or checksum
// mismatch. Get degrades such entries into misses, so the type only
// reaches callers through VerifyAll — the explicit integrity scan —
// where the CLI taxonomy classifies it as data corruption rather than
// a generic failure.
type CorruptError struct {
	Path   string // entry file, when known
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return "store: " + e.Reason
	}
	return "store: " + e.Path + ": " + e.Reason
}

func corruptf(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// verify checks a raw entry file against the key it should hold and
// returns the payload. It is pure and never panics, whatever the
// bytes; failures are typed *CorruptError.
func verify(raw []byte, key string) ([]byte, error) {
	if len(raw) < headerSize+checksumSize {
		return nil, corruptf("entry truncated")
	}
	if string(raw[:4]) != string(magic[:]) {
		return nil, corruptf("bad magic")
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != formatVersion {
		return nil, corruptf("version %d, want %d", v, formatVersion)
	}
	keyLen := int64(binary.LittleEndian.Uint32(raw[8:]))
	payLen := int64(binary.LittleEndian.Uint32(raw[12:]))
	if int64(len(raw)) != headerSize+keyLen+payLen+checksumSize {
		return nil, corruptf("length mismatch")
	}
	gotKey := raw[headerSize : headerSize+keyLen]
	if string(gotKey) != key {
		return nil, corruptf("key mismatch")
	}
	payload := raw[headerSize+keyLen : headerSize+keyLen+payLen]
	want := binary.LittleEndian.Uint64(raw[len(raw)-checksumSize:])
	if fnv64a(key, string(payload)) != want {
		return nil, corruptf("checksum mismatch")
	}
	return payload, nil
}

// VerifyAll reads and verifies every live entry in the directory:
// structural header checks, the embedded key's checksum, and the
// binding between the entry's file name and its key. Damaged entries
// are quarantined (so later Gets never consult them) and reported as
// *CorruptError values; unreadable files report their I/O error. A
// clean store returns nil.
func (s *Store) VerifyAll() []error {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return []error{fmt.Errorf("store: %w", err)}
	}
	var errs []error
	for _, de := range ents {
		if !strings.HasSuffix(de.Name(), entryExt) {
			continue
		}
		p := filepath.Join(s.dir, de.Name())
		raw, err := s.fs.ReadFile(p)
		if err != nil {
			errs = append(errs, fmt.Errorf("store: %s: %w", p, err))
			continue
		}
		if err := verifyEntryFile(raw, de.Name()); err != nil {
			var ce *CorruptError
			if errors.As(err, &ce) {
				ce.Path = p
			}
			errs = append(errs, err)
			s.quarantine(p)
		}
	}
	return errs
}

// verifyEntryFile verifies a raw entry against its own embedded key,
// then checks the file is named by that key's hash — a mis-filed entry
// would otherwise verify here yet never be found by Get.
func verifyEntryFile(raw []byte, name string) error {
	if len(raw) < headerSize+checksumSize {
		return corruptf("entry truncated")
	}
	keyLen := int64(binary.LittleEndian.Uint32(raw[8:]))
	if keyLen < 0 || headerSize+keyLen > int64(len(raw)) {
		return corruptf("key length out of range")
	}
	key := string(raw[headerSize : headerSize+keyLen])
	if _, err := verify(raw, key); err != nil {
		return err
	}
	var h [8]byte
	binary.BigEndian.PutUint64(h[:], fnv64a(key, ""))
	if want := hex.EncodeToString(h[:]) + entryExt; name != want {
		return corruptf("entry filed under %s, key hashes to %s", name, want)
	}
	return nil
}

// Quarantine retires the entry stored under key. Callers use it when
// an entry passed verification but its payload failed to decode (a
// payload-schema change, or corruption introduced before the checksum
// was computed) — leaving it live would re-read it every run.
func (s *Store) Quarantine(key string) { s.quarantine(s.path(key)) }

// quarantine renames a failed entry to its .bad twin so it is never
// consulted again (the entry name is then free for a fresh Put). If
// the rename fails the file is removed outright.
func (s *Store) quarantine(p string) {
	s.quarantined.Add(1)
	if err := s.fs.Rename(p, strings.TrimSuffix(p, entryExt)+badExt); err != nil {
		_ = s.fs.Remove(p)
	}
}

// Stats reports the number of live entries and the approximate size
// of the whole directory (live, quarantined and in-flight files).
func (s *Store) Stats() (entries int, bytes int64) {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return 0, 0
	}
	for _, de := range ents {
		info, err := de.Info()
		if err != nil {
			continue
		}
		bytes += info.Size()
		if strings.HasSuffix(de.Name(), entryExt) {
			entries++
		}
	}
	return entries, bytes
}

// GC removes quarantined files and abandoned temporaries, then evicts
// live entries least-recently-used first until the directory fits in
// the size cap again. Safe to call at any time and from any process
// sharing the directory; a concurrent reader losing its entry sees a
// plain miss.
func (s *Store) GC() {
	s.mu.Lock()
	defer s.mu.Unlock()
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var live []entry
	var total int64
	now := time.Now()
	for _, de := range ents {
		info, err := de.Info()
		if err != nil {
			continue
		}
		p := filepath.Join(s.dir, de.Name())
		switch {
		case strings.HasSuffix(de.Name(), badExt):
			_ = s.fs.Remove(p)
		case strings.HasPrefix(de.Name(), tmpPrefix):
			// Pid-stamped temps are orphans as soon as their writer
			// dies; unparseable ones only after an age grace period.
			if vfs.IsOrphanTemp(de.Name(), info.ModTime(), now) {
				if s.fs.Remove(p) == nil {
					s.orphansSwept.Add(1)
				} else {
					total += info.Size()
				}
			} else {
				total += info.Size()
			}
		case strings.HasSuffix(de.Name(), entryExt):
			live = append(live, entry{p, info.Size(), info.ModTime()})
			total += info.Size()
		default:
			total += info.Size()
		}
	}
	if s.maxBytes > 0 && total > s.maxBytes {
		sort.Slice(live, func(i, j int) bool { return live[i].mtime.Before(live[j].mtime) })
		// Evict down to 7/8 of the cap so steady-state Puts don't GC
		// on every call.
		target := s.maxBytes - s.maxBytes/8
		for _, e := range live {
			if total <= target {
				break
			}
			if s.fs.Remove(e.path) == nil {
				total -= e.size
			}
		}
	}
	s.bytes = total
	s.puts = 0
}

// scanBytes sums the directory for the initial size estimate.
func (s *Store) scanBytes() int64 {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, de := range ents {
		if info, err := de.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// fnv64a hashes two strings as one stream (key then payload), so the
// checksum binds the payload to its key.
func fnv64a(a, b string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= prime
	}
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime
	}
	return h
}
