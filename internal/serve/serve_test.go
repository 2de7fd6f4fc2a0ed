package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ace/internal/cif"
	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/guard"
	"ace/internal/store"
	"ace/internal/wirelist"
)

// cherryCIF renders the cherry benchmark chip to CIF text — a real,
// clean design for good-path requests.
func cherryCIF(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cif.Write(&buf, gen.MustBenchChip("cherry").File); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantWirelist renders the reference wirelist for src through the same
// library path the ace CLI uses, for byte-identity assertions.
func wantWirelist(t testing.TB, src []byte, name string, lenient bool, limits guard.Limits) []byte {
	t.Helper()
	var cold *extract.Engine // nil: the unpooled path the ace CLI takes
	res, err := cold.CIF(nil, src, extract.Options{Lenient: lenient, Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	res.Netlist.Name = name
	out, err := wirelist.AppendTo(nil, res.Netlist, wirelist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// bombCIF builds a hierarchy bomb: depth levels of fanOut-way calls
// over one leaf box, so full expansion is fanOut^(depth-1) boxes.
func bombCIF(depth, fanOut int) []byte {
	var b strings.Builder
	b.WriteString("DS 1; L ND; B 4 4 0 0; DF;\n")
	for d := 2; d <= depth; d++ {
		fmt.Fprintf(&b, "DS %d;", d)
		// Offsets in both axes spread the copies across scanlines, so
		// the sweep hits budget checkpoints while expanding instead of
		// one gigantic stop.
		for i := 0; i < fanOut; i++ {
			fmt.Fprintf(&b, " C %d T %d %d;", d-1, i*10, i*7)
		}
		b.WriteString(" DF;\n")
	}
	fmt.Fprintf(&b, "C %d;\nE\n", depth)
	return []byte(b.String())
}

func newTestServer(t testing.TB, opt Options) *Server {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkNoLeaks fails the test if the goroutine count does not return
// to (near) its pre-test base.
func checkNoLeaks(t *testing.T, base int) {
	t.Helper()
	if n, ok := guard.WaitGoroutines(base+2, 2*time.Second); !ok {
		t.Errorf("goroutine leak: %d alive, want <= %d", n, base+2)
	}
}

func postRaw(t testing.TB, s *Server, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// decodeProblem asserts the response is problem JSON and decodes it.
func decodeProblem(t *testing.T, w *httptest.ResponseRecorder) Problem {
	t.Helper()
	if ct := w.Header().Get("Content-Type"); ct != "application/problem+json" {
		t.Fatalf("Content-Type = %q, want application/problem+json (body: %.200s)", ct, w.Body.String())
	}
	var p Problem
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatalf("problem JSON does not parse: %v (body: %.200s)", err, w.Body.String())
	}
	if p.Status != w.Code {
		t.Errorf("problem status %d != HTTP status %d", p.Status, w.Code)
	}
	if p.Code == "" || p.Type != problemType+p.Code {
		t.Errorf("problem code/type malformed: code=%q type=%q", p.Code, p.Type)
	}
	return p
}

func getStats(t *testing.T, s *Server) Stats {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/statz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/statz = %d", w.Code)
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestExtractByteIdentity(t *testing.T) {
	base := runtime.NumGoroutine()
	src := cherryCIF(t)
	s := newTestServer(t, Options{CacheDir: t.TempDir()})

	want := wantWirelist(t, src, "cherry", false, guard.Limits{})
	w := postRaw(t, s, "/extract?name=cherry", src, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %.300s", w.Code, w.Body.String())
	}
	if got := w.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("wirelist differs from library output (%d vs %d bytes)", len(got), len(want))
	}
	if h := w.Header().Get("X-Cache"); h != "miss" {
		t.Errorf("first X-Cache = %q, want miss", h)
	}

	// Identical upload again: served from the persistent tier,
	// byte-identical, no second extraction.
	w2 := postRaw(t, s, "/extract?name=cherry", src, nil)
	if w2.Code != http.StatusOK || !bytes.Equal(w2.Body.Bytes(), want) {
		t.Fatalf("cached replay mismatch: status %d", w2.Code)
	}
	if h := w2.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("second X-Cache = %q, want hit", h)
	}
	st := getStats(t, s)
	if st.Extractions != 1 || st.CacheHits != 1 {
		t.Errorf("extractions=%d cacheHits=%d, want 1 and 1", st.Extractions, st.CacheHits)
	}
	checkNoLeaks(t, base)
}

func TestExtractMultipartAndDiagJSON(t *testing.T) {
	src := cherryCIF(t)
	s := newTestServer(t, Options{})

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", "cherry.cif")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(src)
	mw.Close()

	req := httptest.NewRequest(http.MethodPost, "/extract?diag=json", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %.300s", w.Code, w.Body.String())
	}
	var doc struct {
		File     string `json:"file"`
		Wirelist string `json:"wirelist"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.File != "cherry.cif" {
		t.Errorf("file = %q, want cherry.cif (multipart file name)", doc.File)
	}
	want := wantWirelist(t, src, "cherry.cif", false, guard.Limits{})
	if doc.Wirelist != string(want) {
		t.Error("diag=json wirelist differs from library output")
	}
}

// TestDiagJSONCarriesFindings: a clean upload whose label names no net
// answers ?diag=json with the sweep's unmatched-label Warning in its
// report, and the plain response is the wirelist alone, as the library
// writes it.
func TestDiagJSONCarriesFindings(t *testing.T) {
	src := []byte("L NM; B 400 400 0 0;\n94 STRAY 90000 90000;\nE\n")
	s := newTestServer(t, Options{})
	w := postRaw(t, s, "/extract?name=stray", src, nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), wantWirelist(t, src, "stray", false, guard.Limits{})) {
		t.Fatalf("plain response: status %d, body %.300s", w.Code, w.Body.String())
	}
	w = postRaw(t, s, "/extract?name=stray&diag=json", src, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %.300s", w.Code, w.Body.String())
	}
	var doc struct {
		Report struct {
			Errors      int `json:"errors"`
			Warnings    int `json:"warnings"`
			Diagnostics []struct {
				Code    string `json:"code"`
				Stage   string `json:"stage"`
				Message string `json:"message"`
			} `json:"diagnostics"`
		} `json:"report"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	r := doc.Report
	if r.Errors != 0 || r.Warnings != 1 || len(r.Diagnostics) != 1 ||
		r.Diagnostics[0].Code != "unmatched-label" || r.Diagnostics[0].Stage != guard.StageSweep ||
		r.Diagnostics[0].Message != `label "STRAY" at (90000,90000) matches no geometry` {
		t.Fatalf("report %+v, want one unmatched-label warning", r)
	}
}

func TestMalformedStrictIs422(t *testing.T) {
	s := newTestServer(t, Options{})
	w := postRaw(t, s, "/extract", []byte("this is not CIF at all ;;;"), nil)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %.300s)", w.Code, w.Body.String())
	}
	p := decodeProblem(t, w)
	if p.Code != "invalid-input" || p.ExitCode != 1 {
		t.Errorf("code=%q exit=%d, want invalid-input/1", p.Code, p.ExitCode)
	}
}

func TestLenientDamageIs422WithSalvage(t *testing.T) {
	// One good box, then parse damage: lenient mode extracts what it
	// can and reports Error-severity diagnostics — the service answers
	// 422 carrying both the report and the salvaged wirelist.
	src := []byte("L ND; B 100 100 0 0;\nB oops;\nE\n")
	s := newTestServer(t, Options{})
	w := postRaw(t, s, "/extract?lenient=1&name=dmg", src, nil)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %.300s)", w.Code, w.Body.String())
	}
	p := decodeProblem(t, w)
	if p.Code != "diagnostics" || p.ExitCode != 1 {
		t.Errorf("code=%q exit=%d, want diagnostics/1", p.Code, p.ExitCode)
	}
	if len(p.Diagnostics) == 0 {
		t.Error("422 carries no diagnostics report")
	}
	if p.Wirelist == "" {
		t.Error("lenient 422 carries no salvaged wirelist")
	}
	want := wantWirelist(t, src, "dmg", true, guard.Limits{})
	if p.Wirelist != string(want) {
		t.Error("salvaged wirelist differs from library output")
	}
}

func TestHierarchyBombIs413(t *testing.T) {
	base := runtime.NumGoroutine()
	// MaxBoxes catches the lazily streamed expansion in the sweep, and
	// the forced label expansion in the front end; MaxMemBytes bounds
	// the active lists and the pending heap on the way.
	s := newTestServer(t, Options{
		Limits: guard.Limits{MaxBoxes: 10_000, MaxMemBytes: 10_000 * guard.BoxBytes},
	})
	// 8^9 ≈ 134M boxes (and labels) if expanded; the budget stops it
	// at 10k.
	bomb := bombCIF(10, 8)
	labelled := bytes.Replace(bomb, []byte("B 4 4 0 0;"), []byte("B 4 4 0 0; 94 X 0 0;"), 1)
	for _, tc := range []struct {
		name string
		body []byte
	}{{"boxes", bomb}, {"labelled", labelled}} {
		t.Run(tc.name, func(t *testing.T) {
			t0 := time.Now()
			w := postRaw(t, s, "/extract", tc.body, nil)
			if d := time.Since(t0); d > 10*time.Second {
				t.Errorf("bomb took %v to reject; budgets should fail fast", d)
			}
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413 (body %.300s)", w.Code, w.Body.String())
			}
			p := decodeProblem(t, w)
			if p.Code != "limit" || p.ExitCode != 4 {
				t.Errorf("code=%q exit=%d, want limit/4", p.Code, p.ExitCode)
			}
		})
	}
	checkNoLeaks(t, base)
}

func TestTimeoutIs504(t *testing.T) {
	base := runtime.NumGoroutine()
	fp := &guard.Failpoint{Stage: StageRequest, Kind: guard.FaultDelay, Delay: 250 * time.Millisecond}
	defer guard.SetInjector(fp)()

	s := newTestServer(t, Options{RequestTimeout: 50 * time.Millisecond})
	w := postRaw(t, s, "/extract", cherryCIF(t), nil)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %.300s)", w.Code, w.Body.String())
	}
	p := decodeProblem(t, w)
	if p.Code != "timeout" || p.ExitCode != 3 {
		t.Errorf("code=%q exit=%d, want timeout/3", p.Code, p.ExitCode)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("504 carries no Retry-After")
	}
	checkNoLeaks(t, base)
}

func TestPanicIsolation(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newTestServer(t, Options{})
	src := cherryCIF(t)

	fp := &guard.Failpoint{Stage: StageRequest, Kind: guard.FaultPanic}
	restore := guard.SetInjector(fp)
	w := postRaw(t, s, "/extract", src, nil)
	restore()

	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %.300s)", w.Code, w.Body.String())
	}
	p := decodeProblem(t, w)
	if p.Code != "panic" {
		t.Errorf("code = %q, want panic", p.Code)
	}
	if p.Stage != StageRequest {
		t.Errorf("stage = %q, want %q", p.Stage, StageRequest)
	}

	// The process survived; the very same server serves the very same
	// upload cleanly.
	w2 := postRaw(t, s, "/extract", src, nil)
	if w2.Code != http.StatusOK {
		t.Fatalf("post-panic request = %d, want 200 (body %.300s)", w2.Code, w2.Body.String())
	}
	if st := getStats(t, s); st.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", st.Panics)
	}
	checkNoLeaks(t, base)
}

// waitStats polls /statz until cond holds or the deadline passes.
func waitStats(t *testing.T, s *Server, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if cond(getStats(t, s)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition not reached: %+v", getStats(t, s))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAdmissionOverflowSheds429(t *testing.T) {
	base := runtime.NumGoroutine()
	fp := &guard.Failpoint{Stage: StageRequest, Kind: guard.FaultDelay, Delay: 300 * time.Millisecond}
	defer guard.SetInjector(fp)()

	s := newTestServer(t, Options{
		MaxInFlight: 1,
		QueueDepth:  1,
		QueueWait:   5 * time.Second,
	})
	// Distinct bodies, so single-flight cannot collapse them.
	body := func(i int) []byte { return []byte(fmt.Sprintf("(v%d) L ND; B 10 10 0 0;\nE\n", i)) }

	var wg sync.WaitGroup
	codes := make([]int, 3)
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = postRaw(t, s, "/extract", body(i), nil).Code
		}()
	}
	launch(0) // takes the only slot
	waitStats(t, s, func(st Stats) bool { return st.InFlight == 1 })
	launch(1) // waits in the queue
	waitStats(t, s, func(st Stats) bool { return st.Queued == 1 })

	// Queue full: this one must be shed immediately with 429.
	w := postRaw(t, s, "/extract", body(2), nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429 (body %.300s)", w.Code, w.Body.String())
	}
	p := decodeProblem(t, w)
	if p.Code != "queue-full" || p.ExitCode != 4 {
		t.Errorf("code=%q exit=%d, want queue-full/4", p.Code, p.ExitCode)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}

	wg.Wait()
	for i, c := range codes[:2] {
		if c != http.StatusOK {
			t.Errorf("admitted request %d = %d, want 200", i, c)
		}
	}
	if st := getStats(t, s); st.ShedQueueFull != 1 {
		t.Errorf("shed_queue_full = %d, want 1", st.ShedQueueFull)
	}
	checkNoLeaks(t, base)
}

func TestQueueWaitSheds429(t *testing.T) {
	fp := &guard.Failpoint{Stage: StageRequest, Kind: guard.FaultDelay, Delay: 400 * time.Millisecond}
	defer guard.SetInjector(fp)()

	s := newTestServer(t, Options{
		MaxInFlight: 1,
		QueueDepth:  4,
		QueueWait:   30 * time.Millisecond,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postRaw(t, s, "/extract", []byte("(a) L ND; B 10 10 0 0;\nE\n"), nil)
	}()
	waitStats(t, s, func(st Stats) bool { return st.InFlight == 1 })

	// This one queues, but no slot frees within QueueWait.
	w := postRaw(t, s, "/extract", []byte("(b) L ND; B 10 10 0 0;\nE\n"), nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %.300s)", w.Code, w.Body.String())
	}
	if p := decodeProblem(t, w); p.Code != "queue-timeout" {
		t.Errorf("code = %q, want queue-timeout", p.Code)
	}
	wg.Wait()
}

func TestDrainShedsAndFinishesInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	fp := &guard.Failpoint{Stage: StageRequest, Kind: guard.FaultDelay, Delay: 200 * time.Millisecond}
	defer guard.SetInjector(fp)()

	s := newTestServer(t, Options{MaxInFlight: 2})
	var wg sync.WaitGroup
	var inFlightCode int
	wg.Add(1)
	go func() {
		defer wg.Done()
		inFlightCode = postRaw(t, s, "/extract", []byte("(d) L ND; B 10 10 0 0;\nE\n"), nil).Code
	}()
	waitStats(t, s, func(st Stats) bool { return st.InFlight == 1 })

	s.BeginDrain()

	// New work is refused with 503 + Retry-After…
	w := postRaw(t, s, "/extract", []byte("(e) L ND; B 10 10 0 0;\nE\n"), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status during drain = %d, want 503", w.Code)
	}
	if p := decodeProblem(t, w); p.Code != "draining" {
		t.Errorf("code = %q, want draining", p.Code)
	}
	// …and health flips to draining.
	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hw.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", hw.Code)
	}

	// …but the in-flight request runs to a clean completion, and Drain
	// returns once it has.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if inFlightCode != http.StatusOK {
		t.Errorf("in-flight request during drain = %d, want 200", inFlightCode)
	}
	checkNoLeaks(t, base)
}

func TestTenantIsolation(t *testing.T) {
	fp := &guard.Failpoint{Stage: StageRequest, Kind: guard.FaultDelay, Delay: 300 * time.Millisecond}
	defer guard.SetInjector(fp)()

	s := newTestServer(t, Options{MaxInFlight: 4, TenantInFlight: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postRaw(t, s, "/extract", []byte("(t1) L ND; B 10 10 0 0;\nE\n"),
			map[string]string{"X-Ace-Tenant": "alpha"})
	}()
	waitStats(t, s, func(st Stats) bool { return st.InFlight == 1 })

	// alpha's second concurrent request: shed by the tenant gate even
	// though global capacity remains.
	w := postRaw(t, s, "/extract", []byte("(t2) L ND; B 10 10 0 0;\nE\n"),
		map[string]string{"X-Ace-Tenant": "alpha"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant overflow = %d, want 429 (body %.300s)", w.Code, w.Body.String())
	}
	if p := decodeProblem(t, w); p.Code != "tenant-overloaded" {
		t.Errorf("code = %q, want tenant-overloaded", p.Code)
	}

	// A different tenant is untouched by alpha's load.
	w2 := postRaw(t, s, "/extract", []byte("(t3) L ND; B 10 10 0 0;\nE\n"),
		map[string]string{"X-Ace-Tenant": "bravo"})
	if w2.Code != http.StatusOK {
		t.Errorf("other tenant = %d, want 200 (body %.300s)", w2.Code, w2.Body.String())
	}
	wg.Wait()
	if st := getStats(t, s); st.ShedTenant != 1 {
		t.Errorf("shed_tenant = %d, want 1", st.ShedTenant)
	}
}

func TestSingleFlightDedup(t *testing.T) {
	base := runtime.NumGoroutine()
	fp := &guard.Failpoint{Stage: StageRequest, Kind: guard.FaultDelay, Delay: 150 * time.Millisecond}
	defer guard.SetInjector(fp)()

	s := newTestServer(t, Options{MaxInFlight: 8})
	src := cherryCIF(t)
	want := wantWirelist(t, src, "c", false, guard.Limits{})

	const n = 6
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postRaw(t, s, "/extract?name=c", src, nil)
			codes[i], bodies[i] = w.Code, w.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, codes[i])
		}
		if !bytes.Equal(bodies[i], want) {
			t.Errorf("request %d wirelist differs", i)
		}
	}
	// The burst of identical uploads collapsed to ONE extraction: the
	// failpoint saw exactly one pipeline entry.
	if hits := fp.Hits(); hits != 1 {
		t.Errorf("pipeline entries = %d, want 1 (single-flight)", hits)
	}
	st := getStats(t, s)
	if st.Extractions != 1 {
		t.Errorf("extractions = %d, want 1", st.Extractions)
	}
	if st.DedupWaits != n-1 {
		t.Errorf("dedup_waits = %d, want %d", st.DedupWaits, n-1)
	}
	checkNoLeaks(t, base)
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	src := cherryCIF(t)

	s1 := newTestServer(t, Options{CacheDir: dir})
	w1 := postRaw(t, s1, "/extract?name=c", src, nil)
	if w1.Code != http.StatusOK {
		t.Fatalf("first server: %d", w1.Code)
	}

	// A fresh daemon over the same cache directory: zero extractions.
	s2 := newTestServer(t, Options{CacheDir: dir})
	w2 := postRaw(t, s2, "/extract?name=c", src, nil)
	if w2.Code != http.StatusOK {
		t.Fatalf("second server: %d", w2.Code)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("restarted daemon served different bytes")
	}
	if h := w2.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("X-Cache = %q, want hit", h)
	}
	st := getStats(t, s2)
	if st.Extractions != 0 || st.CacheHits != 1 {
		t.Errorf("extractions=%d cacheHits=%d, want 0 and 1", st.Extractions, st.CacheHits)
	}

	// Different name → different output → different key: no false hit.
	w3 := postRaw(t, s2, "/extract?name=other", src, nil)
	if h := w3.Header().Get("X-Cache"); h != "miss" {
		t.Errorf("renamed upload X-Cache = %q, want miss", h)
	}

	// An entry written under the v1 key layout, which also folded an
	// expanded-box budget into the key, is never consulted: the upload
	// misses, extracts afresh and quarantines nothing.
	old, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := encodeCached(&cached{ok: true, wirelist: []byte("stale\n")})
	if err := old.Put(resultKeyV1("v1", src), stale); err != nil {
		t.Fatal(err)
	}
	w4 := postRaw(t, s2, "/extract?name=v1", src, nil)
	if h := w4.Header().Get("X-Cache"); h != "miss" {
		t.Errorf("v1-keyed upload X-Cache = %q, want miss", h)
	}
	if want := wantWirelist(t, src, "v1", false, guard.Limits{}); !bytes.Equal(w4.Body.Bytes(), want) {
		t.Error("v1-keyed upload served bytes other than a fresh extraction")
	}
	if q := s2.cache.diskIO().Quarantined; q != 0 {
		t.Errorf("quarantined %d entries, want 0", q)
	}
}

// resultKeyV1 is the strict-mode, unlimited-budget cache key of the v1
// layout: four 8-byte budget fields (boxes, expanded boxes, depth,
// memory), all zero here.
func resultKeyV1(name string, body []byte) string {
	h := sha256.New()
	h.Write([]byte("ace-serve-result-v1\x00"))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(make([]byte, 8*4))
	h.Write(body)
	return "r1:" + hex.EncodeToString(h.Sum(nil))
}

func TestBatch(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir()})
	src := cherryCIF(t)

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, part := range []struct {
		name string
		body []byte
	}{
		{"good.cif", src},
		{"bad.cif", []byte("garbage ;;;")},
		{"good.cif", src}, // identical to the first: must hit cache
	} {
		fw, err := mw.CreateFormFile("file", part.name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(part.body)
	}
	mw.Close()

	req := httptest.NewRequest(http.MethodPost, "/batch", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status = %d (body %.300s)", w.Code, w.Body.String())
	}
	var doc struct {
		Results []struct {
			File     string   `json:"file"`
			Status   int      `json:"status"`
			Wirelist string   `json:"wirelist"`
			Problem  *Problem `json:"problem"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(doc.Results))
	}
	want := string(wantWirelist(t, src, "good.cif", false, guard.Limits{}))
	if r := doc.Results[0]; r.Status != 200 || r.Wirelist != want {
		t.Errorf("result[0]: status=%d, wirelist match=%v", r.Status, r.Wirelist == want)
	}
	if r := doc.Results[1]; r.Status != 422 || r.Problem == nil || r.Problem.Code != "invalid-input" {
		t.Errorf("result[1]: status=%d problem=%+v, want 422 invalid-input", r.Status, r.Problem)
	}
	if r := doc.Results[2]; r.Status != 200 || r.Wirelist != want {
		t.Errorf("result[2]: status=%d, wirelist match=%v", r.Status, r.Wirelist == want)
	}
	// One extraction per distinct (content, name): the duplicate part
	// was served from cache.
	st := getStats(t, s)
	if st.Extractions != 2 {
		t.Errorf("extractions = %d, want 2", st.Extractions)
	}
	if st.CacheHits != 1 {
		t.Errorf("cache_hits = %d, want 1", st.CacheHits)
	}
}

func TestRequestHygiene(t *testing.T) {
	s := newTestServer(t, Options{MaxBodyBytes: 1024})

	t.Run("wrong method", func(t *testing.T) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/extract", nil))
		if w.Code != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", w.Code)
		}
		if p := decodeProblem(t, w); p.Code != "method-not-allowed" {
			t.Errorf("code = %q", p.Code)
		}
		if w.Header().Get("Allow") != "POST" {
			t.Error("405 carries no Allow header")
		}
	})
	t.Run("unknown path", func(t *testing.T) {
		w := postRaw(t, s, "/nope", nil, nil)
		if w.Code != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", w.Code)
		}
		if p := decodeProblem(t, w); p.Code != "not-found" {
			t.Errorf("code = %q", p.Code)
		}
	})
	t.Run("bad query", func(t *testing.T) {
		w := postRaw(t, s, "/extract?lenient=maybe", []byte("E\n"), nil)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", w.Code)
		}
		if p := decodeProblem(t, w); p.Code != "bad-request" {
			t.Errorf("code = %q", p.Code)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		w := postRaw(t, s, "/extract", bytes.Repeat([]byte("(pad pad pad)\n"), 1024), nil)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413 (body %.300s)", w.Code, w.Body.String())
		}
		if p := decodeProblem(t, w); p.Code != "body-too-large" || p.ExitCode != 4 {
			t.Errorf("code=%q exit=%d, want body-too-large/4", p.Code, p.ExitCode)
		}
	})
	t.Run("empty multipart", func(t *testing.T) {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		mw.WriteField("note", "no file here")
		mw.Close()
		req := httptest.NewRequest(http.MethodPost, "/extract", &buf)
		req.Header.Set("Content-Type", mw.FormDataContentType())
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400 (body %.300s)", w.Code, w.Body.String())
		}
	})
	t.Run("batch without multipart", func(t *testing.T) {
		w := postRaw(t, s, "/batch", []byte("E\n"), nil)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", w.Code)
		}
	})
}
