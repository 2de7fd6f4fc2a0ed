// Package serve is the extraction-as-a-service shell around the
// reusable extract.Engine: a stdlib net/http server that accepts CIF
// uploads (single and batch) and answers with wirelists or
// diagnostics reports, engineered robustness-first.
//
// The layers, outermost first:
//
//   - Admission: a bounded wait queue in front of a guard.Gate caps
//     in-flight extractions; overflow is shed immediately with
//     429 + Retry-After problem JSON, so hostile load melts into fast
//     rejections instead of queue growth. Per-tenant gates (bucketed,
//     so adversarial tenant names cannot grow memory) stop one tenant
//     from holding every slot.
//   - Isolation: every request runs under its own context deadline
//     and its own guard.Limits budgets, and every extraction is
//     wrapped in guard.Recover — a hierarchy bomb fails its budget in
//     milliseconds with 413, a worker panic becomes a 500 problem
//     document, and the process never dies with a request.
//   - Classification: every non-2xx response is an RFC 7807 problem
//     document carrying the internal/cli exit taxonomy, so HTTP and
//     CLI clients classify one failure identically.
//   - Caching: a whole-file content-addressed result cache
//     (single-flight in memory, internal/store on disk) means
//     identical uploads never re-extract — concurrently, serially, or
//     across daemon restarts.
//   - Drain: BeginDrain sheds the queue and refuses new work with
//     503 while in-flight requests finish; Drain bounds how long they
//     may take.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"runtime"
	"strings"
	"time"

	"ace/internal/diag"
	"ace/internal/extract"
	"ace/internal/guard"
	"ace/internal/prof"
	"ace/internal/store"
	"ace/internal/vfs"
	"ace/internal/wirelist"
)

// StageRequest is the stage attributed to faults caught at the
// request boundary (panics escaping the pipeline's own recover
// wrappers, injected request-level faults).
const StageRequest = "serve/request"

// Defaults applied by New for zero Options fields.
const (
	DefaultQueueWait      = 2 * time.Second
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxBodyBytes   = 32 << 20
	defaultQueueFactor    = 4 // QueueDepth = factor × MaxInFlight

	// tenantBuckets is the fixed number of per-tenant admission gates.
	// Tenants hash onto buckets, so a flood of fabricated tenant names
	// costs an attacker nothing: memory stays constant and colliding
	// tenants merely share a cap.
	tenantBuckets = 256

	// maxBatchParts caps the files in one batch upload.
	maxBatchParts = 64

	// maxNameLen caps the caller-supplied part name.
	maxNameLen = 256
)

// Options configures a Server.
type Options struct {
	// MaxInFlight caps concurrent extractions; zero selects
	// GOMAXPROCS. This is the primary memory bound: peak extraction
	// footprint ≈ MaxInFlight × per-request Limits.
	MaxInFlight int

	// QueueDepth caps requests waiting for an in-flight slot; beyond
	// it admission sheds with 429. Zero selects 4 × MaxInFlight.
	QueueDepth int

	// QueueWait caps how long one request may wait for admission
	// before shedding with 429; zero selects DefaultQueueWait.
	QueueWait time.Duration

	// RequestTimeout is the per-request wall-clock deadline, spanning
	// queue wait and extraction; zero selects DefaultRequestTimeout,
	// negative disables it.
	RequestTimeout time.Duration

	// MaxBodyBytes caps an upload (single or whole batch); beyond it
	// the request fails with 413. Zero selects DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// Limits are the per-request extraction budgets (boxes, depth,
	// memory); the admission layer owns concurrency via MaxInFlight.
	Limits guard.Limits

	// TenantHeader names the header identifying a tenant for
	// per-tenant admission; empty selects "X-Ace-Tenant". Requests
	// without the header share the anonymous tenant.
	TenantHeader string

	// TenantInFlight caps one tenant's concurrent admitted requests
	// (0: per-tenant gating disabled).
	TenantInFlight int

	// CacheDir enables the persistent result cache in this directory
	// (shared across processes and restarts); CacheMaxBytes caps it
	// with LRU eviction (0: store default). A directory that cannot be
	// opened degrades the server to memory-only caching — recorded in
	// CacheWarning and /statz — rather than failing the boot: the disk
	// is an accelerator, never a dependency.
	CacheDir      string
	CacheMaxBytes int64

	// CacheFS is the filesystem the persistent cache runs on; nil
	// selects vfs.OS. Fault-injection tests substitute a vfs.FaultFS.
	CacheFS vfs.FS
}

// Server is one extraction service instance. Create with New, expose
// via Handler or ServeHTTP, stop with BeginDrain/Drain.
type Server struct {
	opt       Options
	eng       *extract.Engine
	adm       *admission
	tenants   []*guard.Gate // nil: per-tenant gating disabled
	cache     *resultCache
	cacheWarn string // non-empty: persistent cache requested but degraded
	met       *metrics
	start     time.Time
}

// New builds a Server, applying defaults and opening the persistent
// cache when configured.
func New(opt Options) (*Server, error) {
	if opt.MaxInFlight <= 0 {
		opt.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = defaultQueueFactor * opt.MaxInFlight
	}
	if opt.QueueWait <= 0 {
		opt.QueueWait = DefaultQueueWait
	}
	if opt.RequestTimeout == 0 {
		opt.RequestTimeout = DefaultRequestTimeout
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opt.TenantHeader == "" {
		opt.TenantHeader = "X-Ace-Tenant"
	}
	var disk *store.Store
	var cacheWarn string
	if opt.CacheDir != "" {
		s, err := store.Open(opt.CacheDir, store.Options{MaxBytes: opt.CacheMaxBytes, FS: opt.CacheFS})
		if err != nil {
			// Degraded boot, not a failed one: the daemon must come up
			// and serve correct bytes with no disk at all. The condition
			// is observable via CacheWarning and /statz.
			cacheWarn = fmt.Sprintf("persistent cache degraded, serving memory-only: %v", err)
		} else {
			disk = s
		}
	}
	srv := &Server{
		opt:       opt,
		eng:       extract.NewEngine(),
		adm:       newAdmission(opt.MaxInFlight, opt.QueueDepth, opt.QueueWait),
		cache:     newResultCache(disk),
		cacheWarn: cacheWarn,
		met:       newMetrics(),
		start:     time.Now(),
	}
	if opt.TenantInFlight > 0 {
		srv.tenants = make([]*guard.Gate, tenantBuckets)
		for i := range srv.tenants {
			srv.tenants[i] = guard.NewGate(opt.TenantInFlight)
		}
	}
	return srv, nil
}

// Handler returns the server as an http.Handler.
func (s *Server) Handler() http.Handler { return s }

// CacheWarning reports why the persistent cache is degraded (empty
// when it is healthy or was never configured).
func (s *Server) CacheWarning() string { return s.cacheWarn }

// ServeHTTP dispatches by hand rather than through http.ServeMux so
// that unknown paths and wrong methods are also answered with problem
// documents — the service's contract is that every error response,
// without exception, is classified problem JSON.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/extract":
		s.requirePost(w, r, s.handleExtract)
	case "/batch":
		s.requirePost(w, r, s.handleBatch)
	case "/healthz":
		s.handleHealthz(w, r)
	case "/statz":
		s.handleStatz(w, r)
	default:
		p := newProblem(http.StatusNotFound, "not-found", "unknown endpoint")
		p.Detail = r.URL.Path + " is not served; see /extract, /batch, /healthz, /statz"
		p.ExitCode = 2
		s.writeProblem(w, p)
	}
}

func (s *Server) requirePost(w http.ResponseWriter, r *http.Request, h func(http.ResponseWriter, *http.Request)) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		p := newProblem(http.StatusMethodNotAllowed, "method-not-allowed", "POST required")
		p.ExitCode = 2
		s.writeProblem(w, p)
		return
	}
	h(w, r)
}

// BeginDrain moves the server into draining: new and queued requests
// are shed with 503 problem documents while in-flight extractions run
// on. Idempotent.
func (s *Server) BeginDrain() { s.adm.beginDrain() }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.adm.draining() }

// Drain begins draining and waits — bounded by ctx — for in-flight
// work to finish. A ctx error means work was still running at the
// deadline; the caller decides whether to hard-stop.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	return s.adm.waitIdle(ctx)
}

// InFlight reports currently admitted extractions (for harnesses).
func (s *Server) InFlight() int { return s.adm.gate.InFlight() }

// params are the per-request extraction knobs parsed from the query.
type params struct {
	lenient  bool
	diagJSON bool
	name     string
}

func parseParams(r *http.Request) (params, error) {
	q := r.URL.Query()
	var p params
	switch q.Get("lenient") {
	case "", "0", "false":
	case "1", "true":
		p.lenient = true
	default:
		return p, fmt.Errorf("lenient must be 0/1/true/false, got %q", q.Get("lenient"))
	}
	switch q.Get("diag") {
	case "":
	case "json":
		p.diagJSON = true
	default:
		return p, fmt.Errorf("diag must be json, got %q", q.Get("diag"))
	}
	p.name = q.Get("name")
	if len(p.name) > maxNameLen {
		return p, fmt.Errorf("name longer than %d bytes", maxNameLen)
	}
	return p, nil
}

// tenantGate maps the request's tenant header to its admission gate
// (nil when per-tenant gating is off).
func (s *Server) tenantGate(r *http.Request) *guard.Gate {
	if s.tenants == nil {
		return nil
	}
	tenant := r.Header.Get(s.opt.TenantHeader)
	h := uint64(14695981039346656037)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= 1099511628211
	}
	return s.tenants[h%tenantBuckets]
}

// shedProblem classifies an admission failure.
func (s *Server) shedProblem(err error) Problem {
	retry := int(s.opt.QueueWait / time.Second)
	if retry < 1 {
		retry = 1
	}
	switch {
	case errors.Is(err, errDraining):
		s.met.shedDrain.Add(1)
		p := newProblem(http.StatusServiceUnavailable, "draining", "server is draining")
		p.RetryAfter = retry
		p.ExitCode = 4
		return p
	case errors.Is(err, errQueueFull):
		s.met.shedQueueFull.Add(1)
		p := newProblem(http.StatusTooManyRequests, "queue-full", "admission queue at capacity")
		p.RetryAfter = retry
		p.ExitCode = 4
		return p
	case errors.Is(err, errQueueWait):
		s.met.shedQueueWait.Add(1)
		p := newProblem(http.StatusTooManyRequests, "queue-timeout", "no extraction slot freed in time")
		p.RetryAfter = retry
		p.ExitCode = 4
		return p
	default:
		// The request's own deadline expired while queued.
		return problemFor(err)
	}
}

// errTooLarge marks an upload that exceeded MaxBodyBytes.
type errTooLarge struct{ limit int64 }

func (e *errTooLarge) Error() string {
	return fmt.Sprintf("upload exceeds the %d-byte body limit", e.limit)
}

// readBody drains the (already MaxBytesReader-wrapped) reader,
// classifying the cap as errTooLarge.
func (s *Server) readBody(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &errTooLarge{limit: s.opt.MaxBodyBytes}
		}
		return nil, err
	}
	return body, nil
}

// isMultipart reports whether the request carries a multipart body,
// alongside the parsed boundary check multipart.Reader needs.
func isMultipart(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && strings.HasPrefix(mt, "multipart/")
}

// readUpload reads a single-design upload: the raw body, or the first
// file part of a multipart form (whose file name doubles as the
// default part name).
func (s *Server) readUpload(r *http.Request) (body []byte, name string, err error) {
	if !isMultipart(r) {
		body, err = s.readBody(r.Body)
		return body, "", err
	}
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, "", err
	}
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			return nil, "", errors.New("multipart form holds no file part")
		}
		if err != nil {
			return nil, "", err
		}
		if part.FormName() != "file" && part.FileName() == "" {
			continue
		}
		body, err = s.readBody(part)
		if err != nil {
			return nil, "", err
		}
		return body, part.FileName(), nil
	}
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	p, perr := parseParams(r)
	if perr != nil {
		pr := newProblem(http.StatusBadRequest, "bad-request", "invalid query parameter")
		pr.Detail = perr.Error()
		pr.ExitCode = 2
		s.writeProblem(w, pr)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	release, shed := s.admitAll(ctx, r)
	if shed != nil {
		s.writeProblem(w, *shed)
		return
	}
	defer release()
	s.met.accepted.Add(1)

	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	body, upName, err := s.readUpload(r)
	if err != nil {
		s.writeProblem(w, uploadProblem(err))
		return
	}
	if p.name == "" {
		p.name = upName
	}
	if p.name == "" {
		p.name = "upload"
	}
	out := s.run(ctx, body, p)
	s.writeOutcome(w, out, p)
}

// requestCtx derives the per-request deadline context.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opt.RequestTimeout < 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.opt.RequestTimeout)
}

// admitAll runs the full admission stack — tenant gate, then global
// queue+gate — returning either a combined release or the problem to
// answer with.
func (s *Server) admitAll(ctx context.Context, r *http.Request) (release func(), shed *Problem) {
	if s.Draining() {
		p := s.shedProblem(errDraining)
		return nil, &p
	}
	tg := s.tenantGate(r)
	if tg != nil {
		if err := tg.TryAcquire(guard.StageAdmit); err != nil {
			s.met.shedTenant.Add(1)
			p := problemFor(err) // LimitError/WhatConcurrent → 429
			p.Code = "tenant-overloaded"
			p.Type = problemType + p.Code
			p.Title = "tenant concurrency cap reached"
			return nil, &p
		}
	}
	rel, err := s.adm.admit(ctx)
	if err != nil {
		if tg != nil {
			tg.Release()
		}
		p := s.shedProblem(err)
		return nil, &p
	}
	return func() {
		rel()
		if tg != nil {
			tg.Release()
		}
	}, nil
}

func uploadProblem(err error) Problem {
	var tl *errTooLarge
	if errors.As(err, &tl) {
		p := newProblem(http.StatusRequestEntityTooLarge, "body-too-large", "upload exceeds the body limit")
		p.Detail = err.Error()
		p.ExitCode = 4
		return p
	}
	p := newProblem(http.StatusBadRequest, "bad-body", "could not read upload")
	p.Detail = err.Error()
	p.ExitCode = 2
	return p
}

// outcome is what a request resolves to: a deterministic cached
// result, or a classified error.
type outcome struct {
	res       *cached
	err       error
	fromCache bool
}

// run resolves an upload through the cache stack: single-flight
// in-memory, then disk, then one real extraction whose deterministic
// outcome is published to both.
func (s *Server) run(ctx context.Context, body []byte, p params) outcome {
	key := resultKey(p.name, p.lenient, s.limitsFingerprint(), body)
	fl, owner := s.cache.lookup(key)
	if !owner {
		s.met.dedupWaits.Add(1)
		select {
		case <-fl.done:
			return outcome{res: fl.res, err: fl.err, fromCache: true}
		case <-ctx.Done():
			return outcome{err: &guard.StageError{Stage: StageRequest, Err: ctx.Err()}}
		}
	}
	if res, ok := s.cache.getDisk(key); ok {
		s.met.cacheHits.Add(1)
		s.cache.finish(key, fl, res, nil)
		return outcome{res: res, fromCache: true}
	}
	s.met.extractions.Add(1)
	res, err := s.extractOnce(ctx, body, p)
	s.cache.finish(key, fl, res, err)
	if err == nil {
		// Clean and diagnostics-bearing runs are both deterministic
		// functions of (bytes, options); timeouts and panics are not
		// and stay out of the persistent tier.
		s.cache.putDisk(key, res)
	}
	return outcome{res: res, err: err}
}

func (s *Server) limitsFingerprint() limitsFingerprint {
	l := s.opt.Limits
	return limitsFingerprint{
		maxBoxes:    l.MaxBoxes,
		maxDepth:    int64(l.MaxDepth),
		maxMemBytes: l.MaxMemBytes,
	}
}

// extractOnce runs one real extraction under the request's budgets
// and panic isolation, rendering the wirelist and the diagnostics
// report into a cacheable outcome.
func (s *Server) extractOnce(ctx context.Context, body []byte, p params) (c *cached, err error) {
	defer func() {
		if err != nil {
			var pe *guard.PanicError
			if errors.As(err, &pe) {
				s.met.panics.Add(1)
			}
		}
	}()
	defer guard.Recover(StageRequest, &err)
	if err := guard.Inject(StageRequest); err != nil {
		return nil, err
	}
	res, err := s.eng.CIF(ctx, body, extract.Options{
		Lenient: p.lenient,
		Limits:  s.opt.Limits,
	})
	if err != nil {
		return nil, err
	}
	res.Netlist.Name = p.name
	buf := s.eng.GetOutBuf()
	out, werr := wirelist.AppendTo(buf, res.Netlist, wirelist.Options{})
	if werr != nil {
		s.eng.PutOutBuf(out)
		return nil, werr
	}
	c = &cached{
		ok:       res.Diagnostics.Errors() == 0,
		wirelist: append([]byte(nil), out...),
	}
	s.eng.PutOutBuf(out)
	if res.Diagnostics.Len() > 0 {
		var diagBuf bytes.Buffer
		if derr := diag.WriteJSON(&diagBuf, p.name, &res.Diagnostics); derr == nil {
			c.diagJSON = diagBuf.Bytes()
		}
	}
	return c, nil
}

// extractDoc is the ?diag=json response for a clean run: the
// diagnostics report (null when silent) plus the wirelist.
type extractDoc struct {
	File     string          `json:"file"`
	Report   json.RawMessage `json:"report,omitempty"`
	Wirelist string          `json:"wirelist"`
}

func (s *Server) writeOutcome(w http.ResponseWriter, out outcome, p params) {
	switch {
	case out.err != nil:
		s.writeProblem(w, problemFor(out.err))
	case out.res.ok:
		h := w.Header()
		h.Set("X-Cache", cacheHeader(out.fromCache))
		if p.diagJSON {
			h.Set("Content-Type", "application/json")
			doc := extractDoc{File: p.name, Report: out.res.diagJSON, Wirelist: string(out.res.wirelist)}
			body, _ := json.MarshalIndent(doc, "", "  ")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body)
			_, _ = w.Write([]byte("\n"))
		} else {
			h.Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(out.res.wirelist)
		}
		s.met.countStatus(http.StatusOK)
	default:
		// Error-severity diagnostics: the CLI exits 1 here; HTTP says
		// 422 and hands over everything — the report and the salvaged
		// wirelist — so a lenient client loses nothing.
		pr := newProblem(http.StatusUnprocessableEntity, "diagnostics", "input carries error diagnostics")
		pr.ExitCode = 1
		pr.Diagnostics = out.res.diagJSON
		pr.Wirelist = string(out.res.wirelist)
		w.Header().Set("X-Cache", cacheHeader(out.fromCache))
		s.writeProblem(w, pr)
	}
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// batchEntry is one file's result inside a batch response: the
// wirelist on success, a problem document otherwise.
type batchEntry struct {
	File     string          `json:"file"`
	Status   int             `json:"status"`
	Wirelist string          `json:"wirelist,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
	Problem  *Problem        `json:"problem,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	p, perr := parseParams(r)
	if perr != nil {
		pr := newProblem(http.StatusBadRequest, "bad-request", "invalid query parameter")
		pr.Detail = perr.Error()
		pr.ExitCode = 2
		s.writeProblem(w, pr)
		return
	}
	if !isMultipart(r) {
		pr := newProblem(http.StatusBadRequest, "bad-body", "batch requires a multipart/form-data body")
		pr.ExitCode = 2
		s.writeProblem(w, pr)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	// One admission slot covers the whole batch: files run
	// sequentially inside it, so a batch cannot multiply concurrency.
	release, shed := s.admitAll(ctx, r)
	if shed != nil {
		s.writeProblem(w, *shed)
		return
	}
	defer release()
	s.met.accepted.Add(1)

	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	mr, err := r.MultipartReader()
	if err != nil {
		s.writeProblem(w, uploadProblem(err))
		return
	}
	var results []batchEntry
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.writeProblem(w, uploadProblem(err))
			return
		}
		if part.FormName() != "file" && part.FileName() == "" {
			continue
		}
		if len(results) >= maxBatchParts {
			pr := newProblem(http.StatusRequestEntityTooLarge, "too-many-parts",
				fmt.Sprintf("batch holds more than %d files", maxBatchParts))
			pr.ExitCode = 4
			s.writeProblem(w, pr)
			return
		}
		body, err := s.readBody(part)
		if err != nil {
			s.writeProblem(w, uploadProblem(err))
			return
		}
		fp := p
		fp.name = part.FileName()
		if fp.name == "" || len(fp.name) > maxNameLen {
			fp.name = fmt.Sprintf("part-%d", len(results))
		}
		out := s.run(ctx, body, fp)
		results = append(results, batchResult(out, fp))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Results []batchEntry `json:"results"`
	}{Results: results})
	s.met.countStatus(http.StatusOK)
}

func batchResult(out outcome, p params) batchEntry {
	e := batchEntry{File: p.name}
	switch {
	case out.err != nil:
		pr := problemFor(out.err)
		e.Status = pr.Status
		e.Problem = &pr
	case out.res.ok:
		e.Status = http.StatusOK
		e.Wirelist = string(out.res.wirelist)
		e.Report = out.res.diagJSON
	default:
		pr := newProblem(http.StatusUnprocessableEntity, "diagnostics", "input carries error diagnostics")
		pr.ExitCode = 1
		pr.Diagnostics = out.res.diagJSON
		pr.Wirelist = string(out.res.wirelist)
		e.Status = pr.Status
		e.Problem = &pr
	}
	return e
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		p := s.shedProblem(errDraining)
		s.writeProblem(w, p)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
	s.met.countStatus(http.StatusOK)
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	entries, bytes := s.cache.diskStats()
	diskIO := s.cache.diskIO()
	st := Stats{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Draining:       s.Draining(),
		InFlight:       s.adm.gate.InFlight(),
		Queued:         int(s.adm.queued.Load()),
		Accepted:       s.met.accepted.Load(),
		Extractions:    s.met.extractions.Load(),
		CacheHits:      s.met.cacheHits.Load(),
		DedupWaits:     s.met.dedupWaits.Load(),
		Panics:         s.met.panics.Load(),
		ShedQueueFull:  s.met.shedQueueFull.Load(),
		ShedQueueWait:  s.met.shedQueueWait.Load(),
		ShedTenant:     s.met.shedTenant.Load(),
		ShedDrain:      s.met.shedDrain.Load(),
		ByStatus:       s.met.statusSnapshot(),
		CacheEntries:   entries,
		CacheBytes:     bytes,
		CacheDegraded:  s.cacheWarn != "",
		CacheError:     s.cacheWarn,
		CacheGetErrors: diskIO.GetErrors,
		CachePutErrors: diskIO.PutErrors,
		Goroutines:     runtime.NumGoroutine(),
		PeakRSSBytes:   prof.PeakRSSBytes(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
	s.met.countStatus(http.StatusOK)
}
