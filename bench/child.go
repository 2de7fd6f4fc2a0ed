package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ace/internal/prof"
)

// childConfig is what the parent passes to a workload child.
type childConfig struct {
	workload  string
	dir       string // the run's work directory, holding manifest.json
	bin       string // directory holding the aced and cifpack binaries
	report    string
	spans     string
	seed      int64
	seconds   float64
	trace     bool
	quick     bool
	setupOnly bool
}

func (c *childConfig) preset() preset {
	if c.quick {
		return quickPreset
	}
	return fullPreset
}

// report is what a child hands back: its operation counts, failures
// and measured values (end-to-end or per-layer, by the trace setting).
// Digest hashes the job list and every reference output, so two runs
// with one seed can be compared without a clock.
type report struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	Digest    string             `json:"digest"`
}

// fail counts a failed operation and logs the first few.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if r.Failed <= 10 {
		fmt.Fprintln(os.Stderr, "bench: FAIL", fmt.Sprintf(format, args...))
	}
}

// runner is one workload inside the child. setup is everything before
// the first timed operation; run measures; close releases what setup
// acquired (processes, files) and waits for it.
type runner interface {
	setup(c *childConfig, m *manifest) error
	run(c *childConfig, m *manifest, tr *tracer, rep *report)
	close()
}

func newRunner(workload string) (runner, error) {
	switch workload {
	case flatChips:
		return &chipRunner{}, nil
	case hierChips:
		return &chipRunner{hier: true}, nil
	case tilesWindow:
		return &tileRunner{}, nil
	case serveMix:
		return &serveRunner{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// childMain runs one workload in this process: set up, print "ready"
// on stdout (the parent times set-up up to that line), then measure
// unless -setup-only, and write the report.
func childMain(args []string) int {
	var c childConfig
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "")
	fs.StringVar(&c.dir, "dir", "", "")
	fs.StringVar(&c.bin, "bin", "", "")
	fs.StringVar(&c.report, "report", "", "")
	fs.StringVar(&c.spans, "spans", "", "")
	fs.Int64Var(&c.seed, "seed", 1, "")
	fs.Float64Var(&c.seconds, "seconds", 25, "")
	fs.BoolVar(&c.trace, "trace", false, "")
	fs.BoolVar(&c.quick, "quick", false, "")
	fs.BoolVar(&c.setupOnly, "setup-only", false, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var m manifest
	if err := readJSON(filepath.Join(c.dir, "manifest.json"), &m); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	r, err := newRunner(c.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	defer r.close()
	if err := r.setup(&c, &m); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: set-up:", err)
		return 1
	}
	fmt.Println("ready")
	if c.setupOnly {
		return 0
	}

	rep := &report{Values: map[string]float64{}}
	var tr *tracer
	if c.trace {
		tr = newTracer()
		for _, d := range perLayer {
			rep.Values[d.name] = 0
		}
	}
	r.run(&c, &m, tr, rep)
	if tr != nil && c.spans != "" {
		if err := tr.write(c.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench child: spans:", err)
			return 1
		}
	}
	if err := writeJSON(c.report, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// passLoop runs pass 0 untimed, as the warm-up that also records each
// output's reference hash, then timed passes until both the time floor
// and the pass floor are met: whole passes only, so every run covers
// the same job mix. A traced run traces the even passes and runs the
// untraced entry points on the odd ones, which measures its overhead.
// It returns each pass's host factor: the mean of the probes taken
// right before and after the pass.
//
// peak_rss_mib is the median over untraced passes of the pass's own
// peak: the process peak alone depends on where a collection happened
// to fall and moved by a fifth between runs.
func passLoop(c *childConfig, rep *report, pass func(n int, traced bool)) (factors []float64, cal *calibrator) {
	pass(0, false)
	cal = newCalibrator()
	factors = []float64{1}
	before := cal.factor()
	start := time.Now()
	var walls [2][]float64 // untraced, traced
	var peaks []float64
	var gc prof.GCStats // the passes' own collections, not the probes'
	for n := 1; n <= c.preset().minPasses || time.Since(start).Seconds() < c.seconds; n++ {
		traced := c.trace && n%2 == 0
		resetPeakRSS()
		gc0 := prof.CaptureGC()
		t0 := time.Now()
		pass(n, traced)
		k := 0
		if traced {
			k = 1
		}
		walls[k] = append(walls[k], time.Since(t0).Seconds())
		gc = addGC(gc, prof.CaptureGC().Delta(gc0))
		if !traced {
			peaks = append(peaks, peakRSSMiB())
		}
		after := cal.factor()
		factors = append(factors, (before+after)/2)
		before = after
	}
	if c.trace {
		gcValues(rep, gc)
		rep.Values["trace.overhead_pct"] = 100 * (median(walls[1])/median(walls[0]) - 1)
	} else {
		rep.Values["peak_rss_mib"] = median(peaks)
	}
	return factors, cal
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the
// current RSS. Without procfs the mark keeps the process peak.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	_, _ = f.Write([]byte("5")) // on failure the mark keeps the process peak
	f.Close()
}

// passOrder is the seeded job order of pass n over k jobs.
func passOrder(seed int64, n, k int) []int {
	return rand.New(rand.NewSource(seed<<16 + int64(n))).Perm(k)
}

func addGC(a, b prof.GCStats) prof.GCStats {
	return prof.GCStats{
		NumGC:        a.NumGC + b.NumGC,
		PauseTotalNs: a.PauseTotalNs + b.PauseTotalNs,
		TotalAlloc:   a.TotalAlloc + b.TotalAlloc,
	}
}

func gcValues(rep *report, d prof.GCStats) {
	rep.Values["gc.cycles"] = float64(d.NumGC)
	rep.Values["gc.pause_ms"] = float64(d.PauseTotalNs) / 1e6
	rep.Values["gc.alloc_mib"] = float64(d.TotalAlloc) / (1 << 20)
}

func peakRSSMiB() float64 { return float64(prof.PeakRSSBytes()) / (1 << 20) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// digest hashes the printed form of its arguments.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintln(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
