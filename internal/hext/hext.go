package hext

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"ace/internal/build"
	"ace/internal/cif"
	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/netlist"
	"ace/internal/scan"
	"ace/internal/store"
	"ace/internal/vfs"
)

// Options configures a hierarchical extraction.
type Options struct {
	// MaxLeafItems caps the size of a geometry-only window handed to
	// the flat extractor; larger ones are cut in half, which is where
	// partial transistors arise. Zero selects the default of 2000
	// (the paper's primitive windows hold "a few hundred to a few
	// thousand rectangles").
	MaxLeafItems int

	// DisableMemo turns the window memo table and the content cache
	// off, so every window is analysed even when identical to a
	// previous one. Used by the ablation benchmark to quantify what
	// the paper's "redundant windows are recognised and extracted only
	// once" is worth. It also disables the disk cache.
	DisableMemo bool

	// CacheDir, when non-empty, adds a persistent tier under the
	// in-memory caches: a content-addressed store (internal/store) in
	// that directory. A computed design is stored there as two entries
	// under its top window's memo key, the effective MaxLeafItems and
	// Fracture: its whole result (the flattened netlist and the
	// extraction's findings) and its hierarchical wirelist. A later
	// process extracting the same design with the same options reads the
	// whole result instead of extracting, and the wirelist only if it
	// asks for hierarchical output; an edited design has another key and
	// is extracted cold. Entries are verified against their full key on
	// read, so the disk tier can change speed but never bytes; a store
	// that cannot be opened degrades to a cache-disabled Warning in each
	// run's diagnostics, not an error.
	CacheDir string

	// CacheMaxBytes caps the disk cache directory's size: 0 selects
	// store.DefaultMaxBytes, negative disables the cap. Eviction is
	// least-recently-used.
	CacheMaxBytes int64

	// CacheFS is the filesystem the disk cache runs on; nil selects
	// vfs.OS. Fault-injection tests substitute a vfs.FaultFS to prove
	// every disk error degrades to a recompute, never wrong bytes.
	CacheFS vfs.FS

	// Fracture selects the guillotine-cut strategy.
	Fracture Fracture

	// Lenient selects the fail-soft front end for Reader/ReaderContext:
	// parse errors become located diagnostics in Result.Diagnostics and
	// the parser resynchronises instead of aborting, and an empty
	// (or fully-damaged) design yields an empty netlist plus a
	// diagnostic instead of an error. See extract.Options.Lenient.
	Lenient bool

	// Diag caps the diagnostics a run retains; the zero value applies
	// diag.DefaultMaxDiagnostics.
	Diag diag.Limits

	// Limits carries the resource budgets enforced while parsing in
	// Reader/ReaderContext (budgets always abort, even under Lenient).
	Limits guard.Limits
}

// Fracture selects how windows are cut.
type Fracture int8

const (
	// FractureBalanced cuts nearest the window's centre (default):
	// logarithmic recursion, maximal window reuse on regular arrays.
	FractureBalanced Fracture = iota

	// FractureMinCut cuts where the fewest geometry boxes are split,
	// minimising seam contents — the "more intelligent fracturing"
	// HEXT §6 proposes to reduce compose cost.
	FractureMinCut
)

// Counters reports the work HEXT performed; Tables 5-1/5-2 of the
// HEXT paper read these.
type Counters struct {
	FlatCalls     int // calls to the (modified) flat extractor
	ComposeCalls  int // calls to the compose routine
	MemoHits      int // windows answered from the memo table
	UniqueWindows int // distinct windows processed
	CellsExpanded int // one-level instance expansions
	SeamMatches   int // interface-segment pairs matched

	// SessionHits counts the MemoHits answered from a previous Extract
	// in the same Session (the warm path of incremental re-extraction),
	// as opposed to windows repeated within one run.
	SessionHits int

	// Content-cache counters: a flat call whose anchored content the
	// session has already swept is a CacheHit and does no sweep, so
	// LeafSweeps = CacheMisses when the cache is on and FlatCalls
	// otherwise.
	LeafSweeps  int // scanline sweeps actually run
	CacheHits   int // flat calls answered by the content cache
	CacheMisses int // flat calls that had to sweep

	// Disk-tier counters (zero unless Options.CacheDir is set): a run
	// that finds its top window in neither memo table looks the design's
	// whole result up in the persistent store, one DiskHit or one
	// DiskMiss; DiskBytes is the traffic this run exchanged with it.
	DiskHits   int
	DiskMisses int
	DiskBytes  int64 // payload bytes read from + written to the store

	// Disk-error counters, distinct from misses: DiskErrors counts
	// reads that failed for I/O reasons (the entry may exist but could
	// not be read — served as a miss, recomputed), DiskPutErrors counts
	// writes the store abandoned. Nonzero values mean the cache is
	// silently degraded, not that any result was wrong.
	DiskErrors    int
	DiskPutErrors int
}

// Timing splits the run into the paper's phases, in the style of the
// flat extractor's Phases. The whole extraction runs on the caller's
// goroutine, so every phase is a disjoint slice of the call's wall
// clock.
type Timing struct {
	Parse time.Duration // CIF parsing (set by Reader; zero otherwise)
	// FrontEnd is the window recursion's wall time less the leaf
	// sweeps and composes run inside it: subdivision, expansion,
	// hashing, and the memo and disk lookups.
	FrontEnd time.Duration
	Flat     time.Duration // leaf extraction (modified ACE)
	Compose  time.Duration // compose operations
	Flatten  time.Duration // instantiating the window DAG

	// BackEnd is Flat + Compose, the paper's "back-end" column.
}

// BackEnd returns flat-extraction plus compose time.
func (t Timing) BackEnd() time.Duration { return t.Flat + t.Compose }

// Total returns the whole run.
func (t Timing) Total() time.Duration {
	return t.Parse + t.FrontEnd + t.Flat + t.Compose + t.Flatten
}

// String renders the phases as the CLIs' "phases:" line does.
func (t Timing) String() string {
	return fmt.Sprintf("parse=%v frontend=%v flat=%v compose=%v flatten=%v total=%v",
		t.Parse, t.FrontEnd, t.Flat, t.Compose, t.Flatten, t.Total())
}

// Result of a hierarchical extraction.
type Result struct {
	Netlist  *netlist.Netlist
	Counters Counters
	Timing   Timing

	// Diagnostics carries every finding of the run, sorted by the diag
	// ordering contract and capped by Options.Diag: the parser's, a
	// cache-disabled Warning when the store failed to open, and the
	// extraction's own — the leaf sweeps' (each distinct leaf window
	// once, in anchored coordinates), unmatched top-level labels and
	// label conflicts at hext/flatten. A warm or disk-served run reports
	// the same extraction findings as a cold one.
	Diagnostics diag.Set

	top *winResult // for hierarchical wirelist emission

	// stored locates the hierarchical wirelist of a whole-result disk
	// hit, which WriteHierarchical copies on demand, so warm runs that
	// never ask for hierarchical output never read it.
	stored *storedHier
}

// Extract runs HEXT over a parsed CIF design.
func Extract(f *cif.File, opt Options) (*Result, error) {
	return NewSession(opt).Extract(f)
}

// Reader parses CIF text from r and extracts it hierarchically,
// recording the parse phase in the result's Timing.
func Reader(r io.Reader, opt Options) (*Result, error) {
	return ReaderContext(nil, r, opt)
}

// ReaderContext is Reader with cooperative cancellation (see
// Session.ExtractContext).
func ReaderContext(ctx context.Context, r io.Reader, opt Options) (*Result, error) {
	t0 := time.Now()
	f, err := cif.ParseReaderOpts(r, cif.ParseOptions{Limits: opt.Limits, Lenient: opt.Lenient, Diag: opt.Diag})
	if err != nil {
		return nil, err
	}
	parse := time.Since(t0)
	res, err := NewSession(opt).ExtractContext(ctx, f)
	if err != nil {
		return nil, err
	}
	res.Timing.Parse = parse
	return res, nil
}

// Session is an incremental extractor: the window memo table and the
// content-addressed sweep cache persist across Extract calls, so
// re-extracting a design after an edit only analyses the windows whose
// contents actually changed — the "incremental extractor" direction
// ACE §6 points at ("The edge-based algorithms are well suited for
// hierarchical and incremental extractors"). Memo keys are
// content-derived (symbol ids are replaced by structural hashes), so a
// session can even be reused across different parses of related
// designs. Neither table is bounded: every netlist the sweep cache
// holds is also held by a leaf result in the memo, so evicting it would
// free nothing.
type Session struct {
	opt Options
	// memo holds every window result the session's runs finished, by
	// memo key; sweeps holds every leaf sweep they ran, by content key
	// (nil with DisableMemo).
	memo   map[string]*winResult
	sweeps map[string]sweep

	// disk is the persistent cache tier (nil without Options.CacheDir);
	// diskErr is why the store failed to open, reported by every
	// Extract.
	disk    *store.Store
	diskErr error

	// pool keeps sweeper and builder scratch alive across Extract
	// calls — the hierarchical engine's half of the warm loop
	// extract.Engine provides for the flat pipelines. Results are
	// byte-identical with and without reuse: Builder.Finish copies
	// everything it emits out of the scratch it ran in.
	pool *scan.Pool

	// last is the most recently extracted design, the base Apply edits.
	last *cif.File
}

// NewSession creates an incremental extraction session.
func NewSession(opt Options) *Session {
	s := &Session{opt: opt, memo: map[string]*winResult{}, pool: scan.NewPool()}
	if !opt.DisableMemo {
		s.sweeps = map[string]sweep{}
	}
	if opt.CacheDir != "" && !opt.DisableMemo {
		disk, err := store.Open(opt.CacheDir, store.Options{MaxBytes: opt.CacheMaxBytes, FS: opt.CacheFS})
		// Fail-soft: a broken cache directory costs speed, never
		// correctness — extraction proceeds cold with a warning.
		s.disk, s.diskErr = disk, err
	}
	return s
}

// MemoSize reports the number of unique windows retained.
func (s *Session) MemoSize() int { return len(s.memo) }

// diskIO snapshots the disk tier's I/O counters (zero without one).
func (s *Session) diskIO() store.IOCounters {
	if s.disk == nil {
		return store.IOCounters{}
	}
	return s.disk.IOCounters()
}

// Extract runs HEXT over a design, reusing any windows already
// analysed in this session.
func (s *Session) Extract(f *cif.File) (*Result, error) {
	return s.ExtractContext(nil, f)
}

// ExtractContext is Extract with cooperative cancellation: planning,
// every leaf sweep and compose, and the flattening check ctx and unwind
// with a stage-attributed error wrapping ctx.Err(). A nil ctx never
// cancels. It is also panic-isolated: a panic in planning, a leaf
// sweep, a compose or the flattener surfaces as a *guard.PanicError
// naming the stage.
func (s *Session) ExtractContext(ctx context.Context, f *cif.File) (res *Result, err error) {
	defer guard.Recover(guard.StageHextPlan, &err)
	opt := s.opt
	e := s.newEnv(ctx, f)
	var diags diag.Set
	diags.SetLimits(opt.Diag)
	diags.Merge(&f.Diagnostics)
	if s.diskErr != nil {
		diags.Add(diag.New(diag.Warning, guard.StageHextPlan, "cache-disabled",
			fmt.Sprintf("cache disabled: %v", s.diskErr)))
	}
	// Store-level error counters are cumulative per handle (and the
	// session persists across Extracts), so this run's DiskErrors /
	// DiskPutErrors are a delta against a snapshot taken now.
	diskIO0 := s.diskIO()
	captureDiskErrors := func() {
		io := s.diskIO()
		e.counters.DiskErrors = int(io.GetErrors - diskIO0.GetErrors)
		e.counters.DiskPutErrors = int(io.PutErrors - diskIO0.PutErrors)
	}

	top, _ := f.TopSymbol()
	t0 := time.Now()
	win, origin, ok := e.newTopWindow(top)
	if !ok {
		if !opt.Lenient {
			return nil, fmt.Errorf("hext: %w", guard.ErrNoGeometry)
		}
		// Fail-soft: nothing was salvageable (or the design is truly
		// empty); report it and return an empty netlist so the caller
		// still gets the diagnostics alongside a well-formed result.
		diags.Add(diag.New(diag.Warning, guard.StageHextPlan,
			"no-geometry", "design contains no geometry"))
		diags.Sort()
		b := s.pool.GetBuilder()
		nl, _ := b.Finish()
		s.pool.PutBuilder(b)
		s.last = f
		return &Result{Netlist: nl, Diagnostics: diags}, nil
	}
	root, err := e.plan(win, 0)
	if err != nil {
		return nil, err
	}
	e.timing.FrontEnd = time.Since(t0) - e.timing.Flat - e.timing.Compose

	if e.flatNL != nil {
		// Whole-result hit: the final netlist and findings come from one
		// verified store entry, and the hierarchical wirelist from the
		// other when it is asked for.
		s.last = f
		captureDiskErrors()
		diags.AddAll(e.flatDiags)
		diags.Sort()
		return &Result{
			Netlist:     e.flatNL,
			Counters:    e.counters,
			Timing:      e.timing,
			Diagnostics: diags,
			stored:      &storedHier{disk: e.disk, key: e.storeKey("w:"), design: f, opt: s.opt},
		}, nil
	}

	// Publish this run's windows into the session memo. An empty memo
	// adopts the run's table instead of re-inserting each key.
	if !e.noMemo {
		if len(e.memo) == 0 {
			s.memo = e.nodes
		} else {
			for k, r := range e.nodes {
				e.memo[k] = r
			}
		}
	}

	t1 := time.Now()
	b := e.pool.GetBuilder()
	b.Stage = guard.StageHextFlatten
	var nl *netlist.Netlist
	ferr := guard.Run(guard.StageHextFlatten, func() error {
		if err := guard.Inject(guard.StageHextFlatten); err != nil {
			return err
		}
		fc := root.flat
		b.Reserve(int(fc.nets), int(fc.devs), int(fc.devs), int(fc.terms))
		e.flatten(root, origin, b)
		for _, lb := range e.overlay {
			if lb.matched {
				b.NameNet(lb.net, lb.name)
			}
		}
		nl, _ = b.Finish()
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	e.timing.Flatten = time.Since(t1)
	// The extraction's findings, which the whole-result entry persists
	// and replays: the leaves', the unmatched overlay labels', then the
	// flatten builder's.
	found := leafFindings(root)
	for _, lb := range e.overlay {
		if !lb.matched {
			found = append(found, diag.New(diag.Warning, guard.StageHextFlatten, "unmatched-label",
				fmt.Sprintf("label %q at %v matches no conducting geometry", lb.name, lb.at)))
		}
	}
	found = append(found, b.Diagnostics()...)
	e.persist(root, nl, found)
	// Finish copied everything into nl and found holds the builder's
	// findings, so its arenas are free for the next Extract.
	e.pool.PutBuilder(b)
	s.last = f

	captureDiskErrors()
	diags.AddAll(found)
	diags.Sort()
	return &Result{
		Netlist:     nl,
		Counters:    e.counters,
		Timing:      e.timing,
		Diagnostics: diags,
		top:         root,
	}, nil
}

// leafFindings returns the findings of the distinct leaf windows under
// root, each once however many instances share it, in the order the
// recursion first reaches them. The walk descends only into windows
// that hold a finding, so a design without findings walks nothing;
// every run of one design, cold or answered from the session memo,
// reports the same findings.
func leafFindings(root *winResult) []diag.Diagnostic {
	if !root.findings {
		return nil
	}
	var found []diag.Diagnostic
	seen := map[*winResult]bool{}
	var walk func(r *winResult)
	walk = func(r *winResult) {
		if !r.findings || seen[r] {
			return
		}
		seen[r] = true
		if r.leaf != nil {
			found = append(found, r.leaf.diags...)
			return
		}
		walk(r.comp.kids[0])
		walk(r.comp.kids[1])
	}
	walk(root)
	return found
}

// env is one Extract call's state. Its maps and scratch live for the
// call; what outlives it is published into the Session.
type env struct {
	ctx       context.Context
	syms      map[int]*cif.Symbol
	bboxCache map[int]geom.Rect
	infos     map[int]int32 // symbol id -> index in symList
	symList   []symInfo
	names     []string              // label item names, by witem.ref
	memo      map[string]*winResult // the session's results, by memo key
	nodes     map[string]*winResult // this run's results, by memo key
	maxLeaf   int
	noMemo    bool
	fracture  Fracture
	sweeps    map[string]sweep // the session's content cache, by content key
	disk      *store.Store
	pool      *scan.Pool
	overlay   []*overlayLabel
	keyBuf    canonKey       // key's and the leaf content key's scratch
	cut       cutScratch     // chooseCut's scratch
	cs        composeScratch // compose's scratch
	handles   []int32        // flatten's stack of instance handles

	// rootKey is the top window's memo key (the content address of the
	// whole design); flatNL/flatDiags hold a whole-result disk hit.
	rootKey   string
	flatNL    *netlist.Netlist
	flatDiags []diag.Diagnostic

	counters Counters
	timing   Timing
}

// newEnv sets up one Extract call over f.
func (s *Session) newEnv(ctx context.Context, f *cif.File) *env {
	maxLeaf := s.opt.MaxLeafItems
	if maxLeaf <= 0 {
		maxLeaf = 2000
	}
	return &env{
		ctx:       ctx,
		syms:      f.Symbols,
		bboxCache: map[int]geom.Rect{},
		infos:     map[int]int32{},
		memo:      s.memo,
		nodes:     map[string]*winResult{},
		maxLeaf:   maxLeaf,
		noMemo:    s.opt.DisableMemo,
		fracture:  s.opt.Fracture,
		sweeps:    s.sweeps,
		disk:      s.disk,
		pool:      s.pool,
	}
}

// maxWindowDepth bounds window recursion as a safety net: the run
// fails past it instead of recursing without end.
const maxWindowDepth = 64

// plan extracts a window as it subdivides it, in one recursion: HEXT's
// front end ("Each time a window is considered for sub-division, the
// front-end checks a table to see if the window was previously
// analyzed") and its back end, which runs the modified ACE and Compose
// on the windows the table has not seen. A window's result comes from
// this run's table (e.nodes) or a previous Extract in the session
// (e.memo) when it can; otherwise it is a leaf sweep, the compose of a
// cut's two halves, or the result of a one-level expansion. A result
// carries no window number: the hierarchical wirelist numbers windows
// as it writes them.
//
// A whole-result disk hit on the top window returns a nil result and
// leaves the netlist in e.flatNL.
func (e *env) plan(win window, depth int) (*winResult, error) {
	if depth > maxWindowDepth {
		return nil, fmt.Errorf("hext: window recursion exceeded depth %d", maxWindowDepth)
	}
	if err := guard.Ctx(e.ctx, guard.StageHextPlan); err != nil {
		return nil, err
	}
	if err := guard.Inject(guard.StageHextPlan); err != nil {
		return nil, err
	}
	var k string
	if !e.noMemo {
		// kb is key scratch that the recursion below overwrites; the
		// lookups read it in place, and only a window that needs its key
		// kept allocates it as a string.
		kb := e.key(win)
		if r, ok := e.nodes[string(kb)]; ok {
			e.counters.MemoHits++
			return r, nil
		}
		k = string(kb)
		if depth == 0 {
			e.rootKey = k
		}
		if r, ok := e.memo[k]; ok {
			e.counters.MemoHits++
			e.counters.SessionHits++
			e.nodes[k] = r
			return r, nil
		}
		// The top window first tries the whole-result tier: a hit skips
		// extraction and flattening outright.
		if depth == 0 && e.probeFlat() {
			return nil, nil
		}
	}
	e.counters.UniqueWindows++

	var r *winResult
	var err error
	geoOnly := !win.hasCalls()
	uncuttable := win.w < 2 && win.h < 2
	if geoOnly && (len(win.items) <= e.maxLeaf || uncuttable) {
		r, err = e.leaf(win)
	} else if axis, at, ok := e.chooseCut(win); ok {
		a, b := e.splitWindow(win, axis, at)
		// Guard against pathologically dense geometry: when a cut
		// duplicates so many straddling boxes that neither side gets
		// smaller, further cutting can never reach the leaf cap —
		// extract the window whole instead of recursing exponentially.
		if geoOnly && len(a.items) >= len(win.items) && len(b.items) >= len(win.items) {
			r, err = e.leaf(win)
		} else {
			var ra, rb *winResult
			if ra, err = e.plan(a, depth+1); err != nil {
				return nil, err
			}
			if rb, err = e.plan(b, depth+1); err != nil {
				return nil, err
			}
			e.counters.ComposeCalls++
			err = e.backEnd(guard.StageHextCompose, &e.timing.Compose, func() {
				r = e.compose(ra, rb, axis, at, win.w, win.h)
			})
		}
	} else if geoOnly {
		// Oversized but uncuttable geometry: extract it whole.
		r, err = e.leaf(win)
	} else {
		// No cut avoids the instances: expand one level and retry
		// (the disjoint transformation's recursion step).
		r, err = e.plan(e.expandOne(win), depth+1)
	}
	if err != nil {
		return nil, err
	}
	if !e.noMemo {
		e.nodes[k] = r
	}
	return r, nil
}

// leaf sweeps a geometry-only window.
func (e *env) leaf(win window) (*winResult, error) {
	e.counters.FlatCalls++
	var r *winResult
	err := e.backEnd(guard.StageHextLeaf, &e.timing.Flat, func() {
		r = e.extractLeaf(win)
	})
	return r, err
}

// backEnd runs one leaf sweep or compose under panic isolation, with
// its stage's cancellation and fault-injection checks, and adds the
// time run takes to *phase.
func (e *env) backEnd(stage string, phase *time.Duration, run func()) error {
	return guard.Run(stage, func() error {
		if err := guard.Ctx(e.ctx, stage); err != nil {
			return err
		}
		if err := guard.Inject(stage); err != nil {
			return err
		}
		t0 := time.Now()
		run()
		*phase += time.Since(t0)
		return nil
	})
}

// storeKey is the store key of one of the design's two entries: kind
// ("f:" for the whole result — the flattened netlist and the
// extraction's findings — or "w:" for the hierarchical wirelist), the
// options that change what an extraction computes (the effective leaf
// cap and the fracture strategy), then the top window's memo key.
func (e *env) storeKey(kind string) string {
	return kind + strconv.Itoa(e.maxLeaf) + "/" + strconv.Itoa(int(e.fracture)) + ":" + e.rootKey
}

// probeFlat consults the whole-result tier for the design. A hit
// decodes the final netlist and findings; the hierarchical wirelist
// stays on disk until it is asked for.
func (e *env) probeFlat() bool {
	if e.disk == nil {
		return false
	}
	k := e.storeKey("f:")
	payload, ok := e.disk.Get(k)
	if !ok {
		e.counters.DiskMisses++
		return false
	}
	e.counters.DiskBytes += int64(len(payload))
	nl, ds, err := decodeFlat(payload)
	if err != nil {
		// Verified bytes that fail to decode are a schema change (an
		// older payload version) or a deliberate corruption; either way
		// retire the entry so it is not re-read every run.
		e.disk.Quarantine(k)
		e.counters.DiskMisses++
		return false
	}
	e.counters.DiskHits++
	e.flatNL, e.flatDiags = nl, ds
	return true
}

// persist writes a computed design's two entries, best-effort: the
// hierarchical wirelist, then the whole result, so a whole result on
// disk has its wirelist beside it unless the store has lost that since.
func (e *env) persist(root *winResult, nl *netlist.Netlist, found []diag.Diagnostic) {
	if e.disk == nil || e.disk.Has(e.storeKey("f:")) {
		return
	}
	hier, flat := hierPayload(root), encodeFlat(nl, found)
	if e.disk.Put(e.storeKey("w:"), hier) == nil {
		e.counters.DiskBytes += int64(len(hier))
	}
	if e.disk.Put(e.storeKey("f:"), flat) == nil {
		e.counters.DiskBytes += int64(len(flat))
	}
}

// storedHier locates the hierarchical wirelist of a whole-result disk
// hit: the store's "w:" entry key, plus the run itself (its design and
// options) to repeat if that entry fails.
type storedHier struct {
	disk   *store.Store
	key    string
	design *cif.File
	opt    Options
}

// text returns the stored hierarchical wirelist. One that is missing,
// damaged or of an older payload version is extracted again by a fresh
// session without the disk tier; the bad entry is quarantined and the
// new text stored in its place. Neither path writes to t, so any number
// of goroutines may call it at once.
func (t *storedHier) text() ([]byte, error) {
	if payload, ok := t.disk.Get(t.key); ok {
		if len(payload) > 0 && payload[0] == winPayloadVersion {
			return payload[1:], nil
		}
		t.disk.Quarantine(t.key)
	}
	opt := t.opt
	opt.CacheDir = ""
	res, err := NewSession(opt).Extract(t.design)
	if err != nil {
		return nil, err
	}
	payload := hierPayload(res.top)
	_ = t.disk.Put(t.key, payload)
	return payload[1:], nil
}

// flatten instantiates the window DAG into the builder: leaf windows
// contribute their nets and device accumulators; composed windows
// apply their seam equivalences. An instance's handles go onto the
// e.handles stack — its r.netCount builder nets, then one builder
// device per open partial — and flatten returns where they start. A
// composed instance's handles replace its children's on the stack, so
// the stack holds at most one finished frame per level of the walk.
func (e *env) flatten(r *winResult, off geom.Point, b *build.Builder) int {
	// Cancellation unwinds the recursion as an abort-panic: the
	// StageHextFlatten guard.Run in ExtractContext converts it back to
	// the original error. Threading an error return through every frame
	// is not worth it for a cooperative check.
	if err := guard.Ctx(e.ctx, guard.StageHextFlatten); err != nil {
		guard.Abort(err)
	}
	if r.leaf != nil {
		return e.flattenLeaf(r, off, b)
	}

	c := r.comp
	var at [2]int
	at[0] = e.flatten(c.kids[0], off.Add(c.at[0]), b)
	at[1] = e.flatten(c.kids[1], off.Add(c.at[1]), b)
	net := func(rf ref) int32 { return e.handles[at[rf.child]+int(rf.idx)] }
	part := func(rf ref) int32 {
		return e.handles[at[rf.child]+c.kids[rf.child].netCount+int(rf.idx)]
	}

	for _, eq := range c.netEquivs {
		b.UnionNets(net(eq[0]), net(eq[1]))
	}
	for _, eq := range c.partEquivs {
		b.UnionDevs(part(eq[0]), part(eq[1]))
	}
	for _, pt := range c.partTerms {
		b.AddTerm(part(pt.part), net(pt.net), pt.edge)
	}
	top := len(e.handles)
	for _, rf := range c.parentNets {
		e.handles = append(e.handles, net(rf))
	}
	for _, rf := range c.parentParts {
		e.handles = append(e.handles, part(rf))
	}
	e.handles = append(e.handles[:at[0]], e.handles[top:]...)
	return at[0]
}

// flattenLeaf replays one leaf instance into the builder. The cached
// netlist is in anchored coordinates; adding the anchor to the
// placement offset restores the absolute frame.
func (e *env) flattenLeaf(r *winResult, off geom.Point, b *build.Builder) int {
	nl := r.leaf.nl
	eff := off.Add(r.leaf.anchor)
	base := len(e.handles)
	for i := range nl.Nets {
		id := b.NewNet(nl.Nets[i].Location.Add(eff))
		e.handles = append(e.handles, id)
		for _, nm := range nl.Nets[i].Names {
			b.NameNet(id, nm)
		}
	}
	nets := e.handles[base:]
	// An overlay label names the net of the first leaf instance, in
	// flatten order, whose region holds its point on conducting
	// geometry.
	region := geom.Rect{XMin: off.X, YMin: off.Y, XMax: off.X + r.w, YMax: off.Y + r.h}
	for _, lb := range e.overlay {
		if !lb.matched && region.Contains(lb.at) {
			if idx, ok := labelNet(nl, lb.at.Sub(eff), lb); ok {
				lb.matched, lb.net = true, nets[idx]
			}
		}
	}
	// Devices are made in order, so device i is firstDev+i.
	firstDev := int32(b.DevElems())
	for i := range nl.Devices {
		d := &nl.Devices[i]
		dv := b.NewDev()
		bbox := geom.BBoxOf(d.Geometry).Translate(eff)
		b.AddDeviceFacts(dv, d.Area, d.ImplArea, bbox)
		b.AddGate(dv, nets[d.Gate])
		for _, t := range d.Terminals {
			b.AddTerm(dv, nets[t.Net], t.Edge)
		}
	}
	for _, di := range r.leaf.partDevs {
		e.handles = append(e.handles, firstDev+int32(di))
	}
	return base
}
