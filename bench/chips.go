package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"ace"
	"ace/internal/cif"
	"ace/internal/frontend"
	"ace/internal/hext"
	"ace/internal/netlist"
	"ace/internal/scan"
	"ace/internal/wirelist"
)

var (
	partTag = []byte("\n(Part ")
	netTag  = []byte("\n(Net ")
)

// chipRunner drives flat-chips (ace.Extract) and hier-chips
// (ace.ExtractHierarchical): closed loop, one client, seeded shuffled
// passes over the chip set, each job followed by the flat wirelist.
type chipRunner struct {
	hier  bool
	chips []design
	data  [][]byte
	ref   []string // output hash per chip from pass 0
	out   bytes.Buffer

	lat   [][]sample // ms per chip, untraced timed jobs
	rates []sample   // boxes/s of each untraced timed pass
	gaps  []float64  // ms from one job's end to the next one's start
	last  time.Time

	// Counts from traced jobs.
	codec
	stops, maxActive int
	hc               hext.Counters
}

func (r *chipRunner) setup(c *childConfig, m *manifest) error {
	blob, err := os.ReadFile(filepath.Join(c.dir, m.Blob))
	if err != nil {
		return err
	}
	r.chips = m.Designs
	for _, d := range m.Designs {
		r.data = append(r.data, blob[d.Off:d.Off+d.Len])
	}
	return nil
}

func (r *chipRunner) close() {}

func (r *chipRunner) run(c *childConfig, m *manifest, tr *tracer, rep *report) {
	r.ref = make([]string, len(r.chips))
	r.lat = make([][]sample, len(r.chips))
	factors, cal := passLoop(c, rep, func(n int, traced bool) {
		var boxes, busy float64
		r.last = time.Time{}
		for _, i := range passOrder(c.seed, n, len(r.chips)) {
			if d, ok := r.job(n, i, traced, tr, rep); ok {
				boxes += float64(r.chips[i].Boxes)
				busy += d.Seconds()
			}
		}
		if n > 0 && !traced {
			r.rates = append(r.rates, sample{n, ratio(boxes, busy)})
		}
	})
	rep.Digest = digest(passOrder(c.seed, 0, len(r.chips)), passOrder(c.seed, 1, len(r.chips)), r.ref)

	v := rep.Values
	if !c.trace {
		// Job latencies cluster by chip, so the median of all jobs can
		// fall in the gap between two chips' clusters; the median of the
		// chips' medians cannot. The p90 falls inside riscb's cluster.
		e2e := func(f []float64) map[string]float64 {
			var all, mids []float64
			for _, l := range r.lat {
				ms := correct(l, f, false)
				all = append(all, ms...)
				mids = append(mids, median(ms))
			}
			return map[string]float64{
				"boxes_per_s": median(correct(r.rates, f, true)),
				"p50_ms":      median(mids),
				"tail_ms":     percentile(all, 90),
			}
		}
		cal.log(e2e(nil))
		maps.Copy(v, e2e(factors))
		return
	}
	ls := tr.sums("job")
	codecValues(v, ls, r.inBytes, r.outBytes)
	v["scan.stops_per_job"] = ratio(float64(r.stops), float64(ls.ops))
	v["scan.max_active"] = float64(r.maxActive)
	if r.hier {
		v["hext.self_pct"] = ls.selfPct("hext")
		for _, p := range []string{"frontend", "leaf", "compose", "flatten"} {
			v["hext."+p+"_pct"] = pct(ls.reported["hext."+p], ls.wall)
		}
		per := func(n int) float64 { return ratio(float64(n), float64(ls.ops)) }
		v["hext.flat_calls"] = per(r.hc.FlatCalls)
		v["hext.compose_calls"] = per(r.hc.ComposeCalls)
		v["hext.memo_hits"] = per(r.hc.MemoHits)
		v["hext.leaf_sweeps"] = per(r.hc.LeafSweeps)
		v["hext.cache_hit_ratio"] = ratio(float64(r.hc.CacheHits), float64(r.hc.CacheHits+r.hc.CacheMisses))
		v["hext.allocs_per_job"] = ls.allocsPerOp("hext")
	}
	v["gen.late_p99_ms"] = percentile(r.gaps, 99)
}

// codecValues fills the per-layer values every traced pipeline shares.
func codecValues(v map[string]float64, ls layerSums, inBytes, outBytes int64) {
	v["cif.self_pct"] = ls.selfPct("cif")
	v["cif.mb_per_s"] = ratio(float64(inBytes)/1e6, ls.self["cif"])
	v["cif.allocs_per_job"] = ls.allocsPerOp("cif")
	v["frontend.self_pct"] = ls.selfPct("frontend")
	v["frontend.allocs_per_job"] = ls.allocsPerOp("frontend")
	v["scan.self_pct"] = ls.selfPct("scan")
	v["scan.allocs_per_job"] = ls.allocsPerOp("scan")
	v["wirelist.self_pct"] = ls.selfPct("wirelist")
	v["wirelist.mb_per_s"] = ratio(float64(outBytes)/1e6, ls.self["wirelist"])
	v["trace.unattributed_pct"] = ls.selfPct("unattributed")
}

// job runs chip i and reports its duration and whether it succeeded.
func (r *chipRunner) job(n, i int, traced bool, tr *tracer, rep *report) (time.Duration, bool) {
	rep.Attempted++
	start := time.Now()
	if n > 0 && !r.last.IsZero() {
		r.gaps = append(r.gaps, ms(start.Sub(r.last)))
	}
	var out []byte
	var err error
	switch {
	case !traced:
		out, err = r.untraced(i)
	case r.hier:
		out, err = r.tracedHier(tr, r.data[i])
	default:
		out, err = r.tracedFlat(tr, r.data[i])
	}
	d := time.Since(start)
	r.last = start.Add(d)
	d0 := r.chips[i]
	if err != nil {
		rep.fail("%s: %v", d0.Name, err)
		return d, false
	}
	if msg := r.check(n, i, out); msg != "" {
		rep.fail("%s pass %d: %s", d0.Name, n, msg)
		return d, false
	}
	if n > 0 && !traced {
		r.lat[i] = append(r.lat[i], sample{n, ms(d)})
	}
	return d, true
}

// check compares a job's wirelist with the generator's device and net
// counts, and with the chip's pass-0 output.
func (r *chipRunner) check(n, i int, out []byte) string {
	if msg := checkCounts(out, r.chips[i]); msg != "" {
		return msg
	}
	h := hashBytes(out)
	if n == 0 {
		r.ref[i] = h
	} else if h != r.ref[i] {
		return "output differs from the first pass"
	}
	return ""
}

func checkCounts(out []byte, d design) string {
	if got := bytes.Count(out, partTag); got != d.WantDevices {
		return fmt.Sprintf("%d devices, want %d", got, d.WantDevices)
	}
	if got := bytes.Count(out, netTag); d.WantNets > 0 && got != d.WantNets {
		return fmt.Sprintf("%d nets, want %d", got, d.WantNets)
	}
	return ""
}

// untraced runs a job through the public entry points, as the ace and
// hext commands do.
func (r *chipRunner) untraced(i int) ([]byte, error) {
	src := bytes.NewReader(r.data[i])
	var nl *ace.Netlist
	if r.hier {
		res, err := ace.ExtractHierarchical(src, ace.HierOptions{})
		if err != nil {
			return nil, err
		}
		nl = res.Netlist
	} else {
		res, err := ace.Extract(src, ace.Options{})
		if err != nil {
			return nil, err
		}
		nl = res.Netlist
	}
	r.out.Reset()
	err := ace.WriteWirelist(&r.out, nl, ace.WirelistOptions{})
	return r.out.Bytes(), err
}

// tracedFlat composes ace.Extract's serial pipeline from the layers'
// public calls, with a span around each.
func (r *chipRunner) tracedFlat(tr *tracer, data []byte) ([]byte, error) {
	root := tr.root("job")
	defer tr.end(root)
	f, err := r.parse(tr, root, data)
	if err != nil {
		return nil, err
	}
	s := tr.begin(root, "frontend.new")
	stream, err := frontend.New(f, frontend.Options{})
	var labels []frontend.Label
	if err == nil {
		labels = stream.Labels()
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	src := &timedSource{inner: stream}
	s = tr.begin(root, "scan.sweep")
	sres, err := scan.Sweep(src, scan.Options{Labels: labels})
	tr.end(s)
	tr.add(s, "frontend.source", src.spent, false)
	if err != nil {
		return nil, err
	}
	r.stops += sres.Counters.Stops
	r.maxActive = max(r.maxActive, sres.Counters.MaxActive)
	return r.appendWirelist(tr, root, sres.Netlist)
}

// tracedHier is ace.ExtractHierarchical split at the parse, with the
// layer's own phase timing recorded as reported child spans.
func (r *chipRunner) tracedHier(tr *tracer, data []byte) ([]byte, error) {
	root := tr.root("job")
	defer tr.end(root)
	f, err := r.parse(tr, root, data)
	if err != nil {
		return nil, err
	}
	s := tr.begin(root, "hext.extract")
	res, err := hext.Extract(f, hext.Options{})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tr.add(s, "hext.frontend", res.Timing.FrontEnd, true)
	tr.add(s, "hext.leaf", res.Timing.Flat, true)
	tr.add(s, "hext.compose", res.Timing.Compose, true)
	tr.add(s, "hext.flatten", res.Timing.Flatten, true)
	c := res.Counters
	r.hc.FlatCalls += c.FlatCalls
	r.hc.ComposeCalls += c.ComposeCalls
	r.hc.MemoHits += c.MemoHits
	r.hc.LeafSweeps += c.LeafSweeps
	r.hc.CacheHits += c.CacheHits
	r.hc.CacheMisses += c.CacheMisses
	return r.appendWirelist(tr, root, res.Netlist)
}

func (r *chipRunner) parse(tr *tracer, root int, data []byte) (*cif.File, error) {
	s := tr.begin(root, "cif.parse")
	f, err := cif.ParseBytesOpts(data, cif.ParseOptions{})
	tr.end(s)
	r.inBytes += int64(len(data))
	return f, err
}

// codec holds a traced run's reusable wirelist buffer and the bytes it
// parsed and rendered.
type codec struct {
	buf               []byte
	inBytes, outBytes int64
}

// appendWirelist renders nl under a wirelist span.
func (c *codec) appendWirelist(tr *tracer, root int, nl *netlist.Netlist) ([]byte, error) {
	s := tr.begin(root, "wirelist.append")
	var err error
	c.buf, err = wirelist.AppendTo(c.buf[:0], nl, wirelist.Options{})
	tr.end(s)
	c.outBytes += int64(len(c.buf))
	return c.buf, err
}
