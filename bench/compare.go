package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"

	"ace/internal/prof"
)

// spec is the part of BENCHMARK.json that judging runs needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readRecords loads a file of --out records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric of one workload's runs with the given
// trace setting, in file order.
func values(recs []record, workload, metric string, trace int) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Result.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict judges a change against its parent on one metric, by the
// rules of the choosing-metrics method: a gain needs at least ten
// pairs, a win in nine tenths of them and a median gap wider than the
// parent's interquartile range; a loss is a median worse by more than
// the bound; a spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run.
func verdict(parent, change []float64, lowerBetter bool, bound float64) string {
	n := min(len(parent), len(change))
	better := func(b, a float64) bool {
		if lowerBetter {
			return b < a
		}
		return b > a
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	a := append([]float64(nil), parent...)
	b := append([]float64(nil), change...)
	ma, mb := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	spread := math.Max(ratio(q3a-q1a, math.Abs(ma)), ratio(q3b-q1b, math.Abs(mb)))
	allBetter := true
	for _, x := range change {
		for _, y := range parent {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	worse := ratio(mb-ma, math.Abs(ma))
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case n >= 10 && 10*wins >= 9*n && better(mb, ma) && math.Abs(mb-ma) > q3a-q1a:
		return "improved"
	case allBetter:
		return "unchanged" // better everywhere, but short of the gain rule
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	}
	return "unchanged"
}

func readSpec(path string) (spec, error) {
	var s spec
	return s, readJSON(path, &s)
}

// compareMain prints one row per workload × end-to-end metric judging
// change.jsonl against parent.jsonl. Run the two sides alternately,
// ten or more times each, with the same --seconds. It exits 1 when
// any row is worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	parent, err := readRecords(fs.Arg(0))
	if err == nil {
		var change []record
		change, err = readRecords(fs.Arg(1))
		if err == nil {
			return printComparison(sp, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 1
}

func printComparison(sp spec, parent, change []record) int {
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn\tparent median [q1 q3]\tchange median [q1 q3]\tchange\tbound\tverdict")
	code := 0
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			a, b := values(parent, w, m.Name, 0), values(change, w, m.Name, 0)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.Better == "lower", m.Bound)
			if v == "worse" {
				code = 1
			}
			ma, mb := median(a), median(b)
			q1a, q3a := quartiles(a)
			q1b, q3b := quartiles(b)
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.4g [%.4g %.4g]\t%.4g [%.4g %.4g]\t%+.1f%%\t%.0f%%\t%s\n",
				w, m.Name, len(a), len(b), ma, q1a, q3a, mb, q1b, q3b,
				100*ratio(mb-ma, math.Abs(ma)), 100*m.Bound, v)
		}
	}
	tw.Flush()
	return code
}

// stats summarises one metric's runs.
type stats struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3-q1)/median
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) stats {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	q1, q3 := quartiles(xs)
	m := median(xs)
	return stats{N: len(xs), Median: m, Q1: q1, Q3: q3, Spread: ratio(q3-q1, math.Abs(m)), Min: xs[0], Max: xs[len(xs)-1]}
}

// summaryMain prints, for each file of runs (a set), every workload ×
// metric's median and quartiles (end-to-end metrics from untraced runs,
// per-layer ones from traced runs), plus each later set's median drift
// from the first: the form of results/seed.json.
func summaryMain(args []string) int {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	commit := fs.String("commit", "", "commit the runs measured")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench summary:", err)
		return 1
	}
	type set struct {
		File      string                      `json:"file"`
		Workloads map[string]map[string]stats `json:"workloads"`
	}
	doc := struct {
		Commit string                        `json:"commit"`
		NumCPU int                           `json:"nproc"`
		Env    prof.Env                      `json:"env"`
		Sets   []set                         `json:"sets"`
		Drift  map[string]map[string]float64 `json:"drift,omitempty"` // (median_k - median_1)/median_1, largest over later sets
	}{Commit: *commit, NumCPU: runtime.NumCPU(), Env: prof.CaptureEnv(), Drift: map[string]map[string]float64{}}
	var names [2][]string // metric names by trace setting
	for _, m := range sp.EndToEnd {
		names[0] = append(names[0], m.Name)
	}
	for _, m := range sp.PerLayer {
		names[1] = append(names[1], m.Name)
	}
	for _, path := range fs.Args() {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench summary:", err)
			return 1
		}
		s := set{File: path, Workloads: map[string]map[string]stats{}}
		for _, w := range workloads {
			for trace, ns := range names {
				for _, n := range ns {
					if xs := values(recs, w, n, trace); len(xs) > 0 {
						if s.Workloads[w] == nil {
							s.Workloads[w] = map[string]stats{}
						}
						s.Workloads[w][n] = summarize(xs)
					}
				}
			}
		}
		doc.Sets = append(doc.Sets, s)
	}
	for _, s := range doc.Sets[min(1, len(doc.Sets)):] {
		for w, ms := range s.Workloads {
			for m, st := range ms {
				base, ok := doc.Sets[0].Workloads[w][m]
				if !ok {
					continue
				}
				if doc.Drift[w] == nil {
					doc.Drift[w] = map[string]float64{}
				}
				d := ratio(st.Median-base.Median, math.Abs(base.Median))
				if math.Abs(d) > math.Abs(doc.Drift[w][m]) {
					doc.Drift[w][m] = d
				}
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench summary:", err)
		return 1
	}
	return 0
}
