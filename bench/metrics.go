package main

import (
	"math"
	"sort"
)

// metricDef names one reported number and its unit. The two tables
// below are the benchmark's schema; BENCHMARK.json lists the same
// names and units (TestMetricTablesMatchSpec keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the extractor sees, printed for every
// workload by an untraced run. Each workload gives the generic names
// its own meaning (see README.md): a job, a window query or a request
// is the operation whose latency p50_ms and tail_ms report.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"boxes_per_s", "boxes/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer is what a traced run prints: per-layer self-time shares of
// the operation wall, counts and ratios. A layer a workload bypasses
// reports 0. Shares and counts, not absolute times, are reported so
// that a bypassed layer's zero is a count, never a frozen timing.
var perLayer = []metricDef{
	{"cif.self_pct", "%"},
	{"cif.mb_per_s", "MB/s"},
	{"cif.allocs_per_job", "count"},
	{"frontend.self_pct", "%"},
	{"frontend.allocs_per_job", "count"},
	{"scan.self_pct", "%"},
	{"scan.stops_per_job", "count"},
	{"scan.max_active", "count"},
	{"scan.allocs_per_job", "count"},
	{"wirelist.self_pct", "%"},
	{"wirelist.mb_per_s", "MB/s"},
	{"hext.self_pct", "%"},
	{"hext.frontend_pct", "%"},
	{"hext.leaf_pct", "%"},
	{"hext.compose_pct", "%"},
	{"hext.flatten_pct", "%"},
	{"hext.flat_calls", "count"},
	{"hext.compose_calls", "count"},
	{"hext.memo_hits", "count"},
	{"hext.leaf_sweeps", "count"},
	{"hext.cache_hit_ratio", "ratio"},
	{"hext.allocs_per_job", "count"},
	{"tile.read_pct", "%"},
	{"tile.tiles_per_query", "count"},
	{"tile.bytes_per_query", "bytes"},
	{"tile.decode_ratio", "ratio"},
	{"serve.wait_pct", "%"},
	{"serve.small_tail_ratio", "ratio"},
	{"serve.load_tail_ratio", "ratio"},
	{"serve.sat_rps", "req/s"},
	{"serve.hit_ratio", "ratio"},
	{"serve.extractions", "count"},
	{"serve.dedup_waits", "count"},
	{"serve.shed", "count"},
	{"store.entries", "count"},
	{"store.bytes", "bytes"},
	{"store.errors", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"gc.alloc_mib", "MiB"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// which is how spreads of repeated runs are judged. xs is sorted in
// place; fewer than two values give that value twice.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	if n == 1 {
		return xs[0], xs[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// pct returns 100·part/whole, or 0 for an empty whole.
func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
