package serve

import (
	"bytes"
	"encoding/json"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ace/internal/guard"
)

// fuzzServer is shared across fuzz iterations: building a Server per
// input would spend the fuzz budget on setup instead of the handler.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzServer(t testing.TB) *Server {
	fuzzOnce.Do(func() {
		s, err := New(Options{
			MaxBodyBytes:   1 << 20,
			RequestTimeout: 5 * time.Second,
			Limits:         guard.Limits{MaxBoxes: 100_000, MaxDepth: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		fuzzSrv = s
	})
	return fuzzSrv
}

// knownStatuses is the complete set of statuses the service may emit.
// Anything else is an unclassified response — the invariant the fuzzer
// hunts for.
var knownStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusNotFound:              true,
	http.StatusMethodNotAllowed:      true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusTooManyRequests:       true,
	http.StatusInternalServerError:   true,
	http.StatusServiceUnavailable:    true,
	http.StatusGatewayTimeout:        true,
}

// checkClassified asserts the service's core robustness contract on
// one response: a known status, and problem JSON on every error.
func checkClassified(t *testing.T, w *httptest.ResponseRecorder) {
	t.Helper()
	if !knownStatuses[w.Code] {
		t.Fatalf("unclassified status %d (body %.200s)", w.Code, w.Body.String())
	}
	if w.Code < 400 {
		return
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/problem+json" {
		t.Fatalf("error %d without problem media type %q (body %.200s)", w.Code, ct, w.Body.String())
	}
	var p Problem
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatalf("error %d body is not problem JSON: %v (%.200s)", w.Code, err, w.Body.String())
	}
	if p.Status != w.Code || p.Code == "" {
		t.Fatalf("problem document inconsistent: status=%d http=%d code=%q", p.Status, w.Code, p.Code)
	}
}

// FuzzExtractUpload throws arbitrary bytes at the upload handler, both
// as a raw body and wrapped in a multipart form (filename fuzzed too),
// asserting that no input can crash the daemon or escape the response
// taxonomy.
func FuzzExtractUpload(f *testing.F) {
	f.Add([]byte("L ND; B 100 100 0 0;\nE\n"), "a.cif", false)
	f.Add([]byte("DS 1; L ND; B 4 4 0 0; DF;\nC 1;\nE\n"), "hier.cif", true)
	f.Add([]byte("garbage ;;; \x00\xff"), "", true)
	f.Add([]byte(""), "empty", false)
	f.Add([]byte("DS 1; C 1; DF; C 1; E\n"), "recursive", false) // self-recursive call
	f.Add([]byte("(unterminated comment L ND; B 1 1 0 0; E"), "cmt", true)
	f.Add(bytes.Repeat([]byte("L ND; B 9 9 0 0;\n"), 100), "many", false)

	f.Fuzz(func(t *testing.T, body []byte, name string, asMultipart bool) {
		s := fuzzServer(t)
		var req *http.Request
		if asMultipart {
			var buf bytes.Buffer
			mw := multipart.NewWriter(&buf)
			fw, err := mw.CreateFormFile("file", name)
			if err != nil {
				// Some fuzzed names are invalid for multipart; the
				// client library rejecting them is out of scope.
				t.Skip()
			}
			fw.Write(body)
			mw.Close()
			req = httptest.NewRequest(http.MethodPost, "/extract?lenient=1", &buf)
			req.Header.Set("Content-Type", mw.FormDataContentType())
		} else {
			req = httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body))
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		checkClassified(t, w)
	})
}

// FuzzBatchUpload drives the batch endpoint with two fuzzed parts.
func FuzzBatchUpload(f *testing.F) {
	f.Add([]byte("L ND; B 100 100 0 0;\nE\n"), []byte("junk"))
	f.Add([]byte(""), []byte("DS 1;DF;E\n"))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		s := fuzzServer(t)
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		for i, body := range [][]byte{a, b} {
			fw, err := mw.CreateFormFile("file", []string{"a.cif", "b.cif"}[i])
			if err != nil {
				t.Skip()
			}
			fw.Write(body)
		}
		mw.Close()
		req := httptest.NewRequest(http.MethodPost, "/batch", &buf)
		req.Header.Set("Content-Type", mw.FormDataContentType())
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		checkClassified(t, w)
		if w.Code == http.StatusOK {
			var doc struct {
				Results []struct {
					Status int `json:"status"`
				} `json:"results"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
				t.Fatalf("batch 200 body is not JSON: %v", err)
			}
			for _, r := range doc.Results {
				if !knownStatuses[r.Status] {
					t.Fatalf("batch entry has unclassified status %d", r.Status)
				}
			}
		}
	})
}
