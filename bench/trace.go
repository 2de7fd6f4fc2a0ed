package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	"ace/internal/frontend"
	"ace/internal/scan"
)

// span is one timed call into a layer. The benchmark records spans
// around its own calls into each layer's public functions; the
// programs under test carry no instrumentation.
type span struct {
	Op     int    `json:"op"`     // operation (job, query, request) the span belongs to
	ID     int    `json:"id"`     // 1-based, unique in the run
	Parent int    `json:"parent"` // span that caused it; 0 for the operation's root
	Name   string `json:"name"`   // "layer.call"; roots are "job", "chip", "window", "request"
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Allocs int64  `json:"allocs,omitempty"` // heap objects allocated during the span

	// Aggregate marks the summed time of many short calls made inside
	// the parent (a scan.Source's Next calls); Start is the parent's.
	Aggregate bool `json:"aggregate,omitempty"`
	// Reported marks a duration the layer measured itself (hext.Timing)
	// rather than one timed here. It is not subtracted from its parent's
	// self time.
	Reported bool `json:"reported,omitempty"`
}

// tracer keeps a run's spans in memory; they are written out when the
// run ends. It is used from one goroutine.
type tracer struct {
	epoch  time.Time
	spans  []span
	ops    int
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), allocs: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (t *tracer) heapObjects() int64 {
	metrics.Read(t.allocs)
	return int64(t.allocs[0].Value.Uint64())
}

func (t *tracer) push(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// root opens a new operation's root span now.
func (t *tracer) root(name string) int {
	t.ops++
	return t.push(span{Op: t.ops, Name: name, Start: time.Since(t.epoch).Nanoseconds()})
}

// begin opens a child span of parent now; end closes it.
func (t *tracer) begin(parent int, name string) int {
	return t.push(span{
		Op: t.spans[parent-1].Op, Parent: parent, Name: name,
		Start: time.Since(t.epoch).Nanoseconds(), Allocs: t.heapObjects(),
	})
}

func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.Dur = time.Since(t.epoch).Nanoseconds() - s.Start
	if s.Parent != 0 {
		s.Allocs = t.heapObjects() - s.Allocs
	}
}

// add records a child of parent whose duration was measured elsewhere:
// an aggregate of many calls, or a layer's own report.
func (t *tracer) add(parent int, name string, d time.Duration, reported bool) {
	p := t.spans[parent-1]
	t.push(span{Op: p.Op, Parent: parent, Name: name, Start: p.Start, Dur: d.Nanoseconds(),
		Aggregate: !reported, Reported: reported})
}

// rootAt and spanAt record spans from timestamps taken elsewhere (the
// serve-mix client times its requests itself).
func (t *tracer) rootAt(name string, start, end time.Time) int {
	t.ops++
	return t.push(span{Op: t.ops, Name: name, Start: start.Sub(t.epoch).Nanoseconds(), Dur: end.Sub(start).Nanoseconds()})
}

func (t *tracer) spanAt(parent int, name string, start, end time.Time) {
	t.push(span{Op: t.spans[parent-1].Op, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), Dur: end.Sub(start).Nanoseconds()})
}

// layerSums is the per-layer account of the operations under some
// root names.
type layerSums struct {
	ops      int
	wall     float64            // summed root durations, seconds
	self     map[string]float64 // self seconds per layer; roots' own time under "unattributed"
	reported map[string]float64 // seconds per Reported span name
	allocs   map[string]int64   // heap objects per layer
}

// sums computes the account: a span's self time is its duration minus
// the durations of its timed (not Reported) children, and a span's
// layer is the part of its name before the first dot.
func (t *tracer) sums(roots ...string) layerSums {
	ls := layerSums{self: map[string]float64{}, reported: map[string]float64{}, allocs: map[string]int64{}}
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 && !s.Reported {
			children[s.Parent] += s.Dur
		}
	}
	isRoot := map[string]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	keep := map[int]bool{}
	for _, s := range t.spans {
		if s.Parent == 0 && isRoot[s.Name] {
			keep[s.Op] = true
			ls.ops++
			ls.wall += float64(s.Dur) / 1e9
		}
	}
	for _, s := range t.spans {
		if !keep[s.Op] {
			continue
		}
		switch {
		case s.Reported:
			ls.reported[s.Name] += float64(s.Dur) / 1e9
		case s.Parent == 0:
			ls.self["unattributed"] += float64(s.Dur-children[s.ID]) / 1e9
		default:
			layer, _, _ := strings.Cut(s.Name, ".")
			ls.self[layer] += float64(s.Dur-children[s.ID]) / 1e9
			ls.allocs[layer] += s.Allocs
		}
	}
	return ls
}

// selfPct is a layer's self time as a share of the operation wall.
func (ls layerSums) selfPct(layer string) float64 { return pct(ls.self[layer], ls.wall) }

func (ls layerSums) allocsPerOp(layer string) float64 {
	return ratio(float64(ls.allocs[layer]), float64(ls.ops))
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSource sums the time the sweep spends inside its box source:
// the front end's lazy instantiation, or a tile iterator's reads.
type timedSource struct {
	inner scan.Source
	spent time.Duration
}

func (t *timedSource) NextTop() (int64, bool) {
	s := time.Now()
	y, ok := t.inner.NextTop()
	t.spent += time.Since(s)
	return y, ok
}

func (t *timedSource) Next() (frontend.Box, bool) {
	s := time.Now()
	b, ok := t.inner.Next()
	t.spent += time.Since(s)
	return b, ok
}
