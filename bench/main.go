// Command bench is this repository's benchmark. It runs one of four
// seeded workloads against the extractor's public entry points and the
// real cifpack and aced binaries, checks every output, and prints one
// JSON result line: the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced run. README.md describes the
// workloads, the metrics and the span format.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/run.sh --workload flat-chips --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload all --out runs.jsonl
//	bash bench/run.sh compare parent.jsonl change.jsonl
//	bash bench/run.sh summary -commit <hash> set1.jsonl set2.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "summary":
			os.Exit(summaryMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	spans    string // traced runs: span file; empty selects one under work
	work     string // parent directory of the per-run work directories
	bin      string // directory holding aced and cifpack
}

// result is the line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one result as stored by --out, the input of compare and
// summary.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Result   result  `json:"result"`
}

func benchMain(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var cfg runConfig
	var trace int
	var out string
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "flat-chips, hier-chips, tiles-window, serve-mix or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every random choice")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "small inputs (the self-test preset)")
	fs.StringVar(&cfg.spans, "spans", "", "traced runs: write spans here (default under -work)")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "directory for generated inputs")
	fs.StringVar(&cfg.bin, "bin", filepath.Dir(exe), "directory holding aced and cifpack")
	fs.StringVar(&out, "out", "", "append each result as a JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads
	}
	code := 0
	for _, w := range names {
		cfg.workload = w
		o, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			return 1
		}
		line, err := json.Marshal(o.res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if out != "" {
			if err := appendRecord(out, record{w, cfg.seed, trace, cfg.seconds, o.res}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		fmt.Println(string(line))
		if !o.res.Correct {
			code = 1
		}
	}
	return code
}

// outcome is a finished run: the printed result plus what the log and
// the self-test want.
type outcome struct {
	res    result
	digest string
}

// runWorkload generates the inputs, starts the workload child
// setupReps times to time its set-up (the last start goes on to
// measure), and assembles the result.
func runWorkload(cfg runConfig) (outcome, error) {
	def := metricTable(cfg.trace)
	p := fullPreset
	if cfg.quick {
		p = quickPreset
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	if cfg.spans == "" && cfg.trace {
		cfg.spans = filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}

	t0 := time.Now()
	if _, err := generate(cfg.workload, cfg.seed, cfg.seconds, p, dir); err != nil {
		return outcome{}, fmt.Errorf("generate: %w", err)
	}
	genS := time.Since(t0).Seconds()

	reps := p.setupReps
	if cfg.trace {
		reps = 1 // a traced run prints no set-up time
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		s, err := runChild(cfg, dir, i < reps-1)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, s)
	}
	var rep report
	if err := readJSON(filepath.Join(dir, "report.json"), &rep); err != nil {
		return outcome{}, err
	}
	rep.Values["setup_s"] = median(setups)

	res := result{Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	res.Correct = rep.Failed == 0 && rep.Attempted > 0
	for _, d := range def {
		v, ok := rep.Values[d.name]
		if !ok {
			return outcome{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	logRun(cfg, genS, setups, res, rep)
	return outcome{res: res, digest: rep.Digest}, nil
}

func metricTable(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runChild starts the workload child and returns the time from its
// start until it printed "ready": the workload's set-up time. A
// set-up-only child exits there; the last one measures and writes
// report.json before it exits.
func runChild(cfg runConfig, dir string, setupOnly bool) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"child",
		"-workload", cfg.workload, "-dir", dir, "-bin", cfg.bin,
		"-report", filepath.Join(dir, "report.json"), "-spans", cfg.spans,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace=" + strconv.FormatBool(cfg.trace), "-quick=" + strconv.FormatBool(cfg.quick),
		"-setup-only=" + strconv.FormatBool(setupOnly),
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if cfg.workload == tilesWindow {
		cmd.Env = append(os.Environ(), "GOMEMLIMIT=64MiB")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	// A child that hangs is killed, which ends the reads below.
	kill := time.AfterFunc(time.Duration(cfg.seconds*float64(time.Second))+100*time.Second, func() {
		cmd.Process.Kill()
	})
	defer kill.Stop()
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	setup := time.Since(start).Seconds()
	io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	switch {
	case werr != nil:
		return 0, fmt.Errorf("child: %w", werr)
	case rerr != nil || line != "ready\n":
		return 0, errors.New("child exited before it was ready")
	}
	return setup, nil
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// logRun prints a readable account of the run to stderr.
func logRun(cfg runConfig, genS float64, setups []float64, res result, rep report) {
	w := os.Stderr
	fmt.Fprintf(w, "bench: %s seed=%d seconds=%g trace=%v: %d attempted, %d failed\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, res.Attempted, res.Failed)
	fmt.Fprintf(w, "  gen_s %.3f (input generation, not measured)  set-up samples %.4f\n", genS, setups)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if cfg.trace {
		fmt.Fprintf(w, "  spans: %s\n", cfg.spans)
	}
	fmt.Fprintf(w, "  digest %s\n", rep.Digest)
}
