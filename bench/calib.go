package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Host-speed correction.
//
// The shared hosts this benchmark runs on speed up and slow down by up
// to a third over minutes, for every workload at once. No statistic
// inside one run removes a drift that outlasts the run, and it made the
// run-to-run spread of every timing 10–30%. So each run times a fixed
// reference computation next to the measured work and scales that
// work's times by the reference's: a timing reported here is what it
// would have been at the recording host's reference speed. The
// uncorrected values go to the log.
//
// The reference is SHA-256 over a 64 KiB buffer: allocation-free and
// cache-resident, so no change to the programs under test can alter its
// cost. Each probe first collects garbage, so that no collection of the
// measured work's garbage runs beside it. Over 35 runs of the three
// closed-loop workloads, the probe's time correlated with their
// throughput at r = -0.92 to -0.95, and the correction halved the
// run-to-run spread.

// refProbeMs is about the probe's median time on the recording host,
// so that corrected values there read close to the measured ones.
const refProbeMs = 1.7

const probeRounds = 32

// calibrator probes the host's speed.
type calibrator struct {
	buf    []byte
	probes []float64 // ms
}

func newCalibrator() *calibrator { return &calibrator{buf: make([]byte, 64<<10)} }

// factor probes the host once and returns how much slower than the
// reference it ran.
func (c *calibrator) factor() float64 {
	runtime.GC()
	t := time.Now()
	for i := 0; i < probeRounds; i++ {
		s := sha256.Sum256(c.buf)
		c.buf[i] = s[0]
	}
	ms := float64(time.Since(t).Nanoseconds()) / 1e6
	c.probes = append(c.probes, ms)
	return ms / refProbeMs
}

// burst is the median factor of five probes, for a workload that can
// probe only between its phases.
func (c *calibrator) burst() float64 {
	fs := make([]float64, 5)
	for i := range fs {
		fs[i] = c.factor()
	}
	return median(fs)
}

// log prints the run's host factor and its uncorrected end-to-end
// values.
func (c *calibrator) log(uncorrected map[string]float64) {
	m := median(append([]float64(nil), c.probes...))
	fmt.Fprintf(os.Stderr, "  host factor %.3f (probe median %.3f ms over %d probes, reference %.3f ms); uncorrected:",
		m/refProbeMs, m, len(c.probes), refProbeMs)
	for _, d := range endToEnd {
		if v, ok := uncorrected[d.name]; ok {
			fmt.Fprintf(os.Stderr, " %s=%.4g", d.name, v)
		}
	}
	fmt.Fprintln(os.Stderr)
}

// sample is one timing or rate measured in pass (or phase) pass.
type sample struct {
	pass int
	v    float64
}

// correct returns the samples at the reference speed, given each
// pass's host factor: times divided by it, rates multiplied by it. Nil
// factors leave the samples as measured.
func correct(xs []sample, factors []float64, rate bool) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		f := 1.0
		if factors != nil {
			f = factors[x.pass]
		}
		if rate {
			out[i] = x.v * f
		} else {
			out[i] = x.v / f
		}
	}
	return out
}
