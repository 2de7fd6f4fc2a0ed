package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"ace/internal/diag"
	"ace/internal/guard"
	"ace/internal/store"
	"ace/internal/tile"
)

func TestExitCodeFor(t *testing.T) {
	le := &guard.LimitError{Stage: guard.StageParse, What: "boxes", Value: 2, Limit: 1}
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("plain failure"), ExitFindings},
		{context.DeadlineExceeded, ExitTimeout},
		{context.Canceled, ExitTimeout},
		{&guard.StageError{Stage: guard.StageSweep, Err: context.DeadlineExceeded}, ExitTimeout},
		{le, ExitLimit},
		{&guard.StageError{Stage: guard.StageParse, Err: le}, ExitLimit},
		{&guard.LimitError{Stage: guard.StageAdmit, What: guard.WhatConcurrent, Value: 9, Limit: 8}, ExitLimit},
		{&tile.CorruptError{Region: "footer", Msg: "checksum mismatch"}, ExitCorrupt},
		{&store.CorruptError{Path: "x.e", Reason: "bad magic"}, ExitCorrupt},
		{&guard.StageError{Stage: guard.StageExtract, Err: &tile.CorruptError{Region: "tile[0,0]", Msg: "truncated"}}, ExitCorrupt},
		// A raw disk fault is not corruption: the cache's read path
		// fails open (quarantine + recompute), so an I/O error that
		// does escape classifies as a plain failure, never ExitCorrupt.
		{fmt.Errorf("read cache entry: %w", syscall.EIO), ExitFindings},
		{fmt.Errorf("write cache entry: %w", syscall.ENOSPC), ExitFindings},
	}
	for _, c := range cases {
		if got := ExitCodeFor(c.err); got != c.want {
			t.Errorf("ExitCodeFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestExit(t *testing.T) {
	var s diag.Set
	if Exit(&s) != ExitOK {
		t.Fatal("empty set should exit 0")
	}
	s.Add(diag.New(diag.Warning, "check", "ratio", "weak"))
	if Exit(&s) != ExitOK {
		t.Fatal("warnings alone should exit 0")
	}
	s.Add(diag.New(diag.Error, "cif/parse", "bad-operand", "boom"))
	if Exit(&s) != ExitFindings {
		t.Fatal("errors should exit 1")
	}
}

func TestRenderDiagnostics(t *testing.T) {
	// An empty set prints nothing in text mode unless the report is
	// asked for; the JSON report is always written.
	var s diag.Set
	var jsonW, textW bytes.Buffer
	if err := RenderDiagnostics("chip.cif", &s, false, false, &jsonW, &textW); err != nil {
		t.Fatal(err)
	}
	if jsonW.Len() != 0 || textW.Len() != 0 {
		t.Fatalf("empty set rendered: json %q text %q", jsonW.String(), textW.String())
	}
	if err := RenderDiagnostics("chip.cif", &s, false, true, &jsonW, &textW); err != nil {
		t.Fatal(err)
	}
	if jsonW.Len() != 0 || textW.String() != "0 errors, 0 warnings\n" {
		t.Fatalf("asked-for report: json %q text %q", jsonW.String(), textW.String())
	}
	textW.Reset()
	if err := RenderDiagnostics("chip.cif", &s, true, false, &jsonW, &textW); err != nil {
		t.Fatal(err)
	}
	if textW.Len() != 0 || !strings.Contains(jsonW.String(), `"warnings": 0`) {
		t.Fatalf("empty json report: json %q text %q", jsonW.String(), textW.String())
	}
	jsonW.Reset()

	s.Add(diag.New(diag.Error, "cif/parse", "bad-operand", "boom"))
	if err := RenderDiagnostics("chip.cif", &s, false, false, &jsonW, &textW); err != nil {
		t.Fatal(err)
	}
	if jsonW.Len() != 0 || !strings.Contains(textW.String(), "bad-operand") {
		t.Fatalf("text mode wrote to wrong stream: json %q text %q", jsonW.String(), textW.String())
	}
	jsonW.Reset()
	textW.Reset()
	if err := RenderDiagnostics("chip.cif", &s, true, false, &jsonW, &textW); err != nil {
		t.Fatal(err)
	}
	if textW.Len() != 0 || !strings.Contains(jsonW.String(), "\"diagnostics\"") {
		t.Fatalf("json mode wrote to wrong stream: json %q text %q", jsonW.String(), textW.String())
	}
}

// TestHostLine: every timing-table header states GOMAXPROCS, since the
// flat/HEXT comparison depends on it.
func TestHostLine(t *testing.T) {
	want := fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	if got := HostLine(); !strings.Contains(got, want) || !strings.Contains(got, runtime.Version()) {
		t.Fatalf("HostLine() = %q, want the Go version and %q", got, want)
	}
}
