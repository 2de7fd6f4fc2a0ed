// Command acebomb is the adversarial load harness for aced: it fires
// a mixed stream of well-formed designs, malformed text, hierarchy
// bombs, oversized bodies and bad queries at a daemon, and asserts the
// robustness contract instead of just measuring:
//
//   - every response carries a status the service is allowed to emit
//     for that traffic kind, and every error is problem JSON;
//   - good requests that complete answer the exact wirelist bytes the
//     extraction library produces;
//   - the daemon's goroutine count returns to its pre-load baseline
//     (no per-request leaks);
//   - peak RSS stays under -max-rss;
//   - the warm engine sustained real throughput (-min-rps).
//
// With no -url it boots an in-process server on a loopback listener —
// budgets pre-armed so bombs are shed — which is the CI mode; with
// -url it attacks an already-running aced, whose operator must have
// armed -max-boxes (or bombs will burn the request timeout instead of
// the box budget).
//
// With -crash it instead runs the kill-9 crash-consistency loop
// against the persistent result cache (see crash.go): spawn a child
// doing store-backed extractions, SIGKILL it mid-write, assert the
// store recovers clean and serves byte-identical results.
//
// Exit: 0 when every invariant held, 1 otherwise, 2 on usage errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/cif"
	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/guard"
	"ace/internal/serve"
	"ace/internal/wirelist"
)

var (
	flagURL      = flag.String("url", "", "daemon base URL (empty: boot an in-process server)")
	flagDuration = flag.Duration("duration", 5*time.Second, "attack duration")
	flagClients  = flag.Int("clients", 8, "concurrent attacking clients")
	flagMaxRSS   = flag.Int64("max-rss", 4<<30, "peak-RSS bound asserted after the run (bytes)")
	flagMinRPS   = flag.Float64("min-rps", 1, "minimum sustained completed requests per second")
	flagBodyCap  = flag.Int64("body-cap", 1<<20, "the daemon's -max-body-bytes; oversized traffic is sized just past it")
)

// kind is one traffic class with its set of legitimate responses.
// Shed statuses (429, 503) are legitimate for every kind that reaches
// admission — load shedding is the contract, not a failure.
type kind struct {
	name string
	ok   map[int]bool
	make func(i int) *http.Request
}

// stats counts one kind's outcomes.
type stats struct {
	sent       atomic.Int64
	byStatus   sync.Map // int → *atomic.Int64
	violations atomic.Int64
}

func (s *stats) count(status int) {
	v, _ := s.byStatus.LoadOrStore(status, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

func main() {
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "acebomb: unexpected arguments")
		os.Exit(2)
	}
	switch {
	case *flagCrashChild:
		runCrashChild(*flagCrashDir, *flagCrashSeed)
		return
	case *flagCrash:
		os.Exit(runCrashParent())
	}

	base := *flagURL
	var inproc *serve.Server
	var ln net.Listener
	if base == "" {
		// CI mode: in-process daemon with budgets armed, so bombs are
		// refused by limits instead of timing out.
		s, err := serve.New(serve.Options{
			Limits:         guard.Limits{MaxBoxes: 200_000, MaxDepth: 64},
			MaxBodyBytes:   *flagBodyCap,
			RequestTimeout: 10 * time.Second,
			QueueWait:      250 * time.Millisecond,
		})
		if err != nil {
			fatal(err)
		}
		inproc = s
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("acebomb: in-process daemon at %s\n", base)
	}
	base = strings.TrimSuffix(base, "/")

	goodSrc, goodWant := goodPayload()
	kinds := buildKinds(base, goodSrc)

	// Baseline before load: the daemon must return here afterwards.
	st0, err := fetchStats(base)
	if err != nil {
		fatal(fmt.Errorf("daemon not answering /statz: %w", err))
	}

	perKind := make([]*stats, len(kinds))
	for i := range perKind {
		perKind[i] = &stats{}
	}
	var goodBodyMismatch atomic.Int64

	stop := time.Now().Add(*flagDuration)
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 30 * time.Second}
	for c := 0; c < *flagClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(stop); i += *flagClients {
				// Deterministic rotation through the mix: every client
				// covers every kind, good traffic dominates 3:1 so the
				// warm path is actually exercised under the attack.
				k := kinds[mixPick(i)]
				st := perKind[mixPick(i)]
				req := k.make(i)
				resp, err := client.Do(req)
				if err != nil {
					st.violations.Add(1)
					continue
				}
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
				resp.Body.Close()
				st.sent.Add(1)
				st.count(resp.StatusCode)
				if !k.ok[resp.StatusCode] {
					st.violations.Add(1)
					fmt.Fprintf(os.Stderr, "acebomb: %s: unexpected status %d: %.120s\n", k.name, resp.StatusCode, body)
					continue
				}
				if resp.StatusCode >= 400 && !isProblemJSON(resp, body) {
					st.violations.Add(1)
					fmt.Fprintf(os.Stderr, "acebomb: %s: %d without problem JSON: %.120s\n", k.name, resp.StatusCode, body)
				}
				if k.name == "good" && resp.StatusCode == 200 && !bytes.Equal(body, goodWant) {
					goodBodyMismatch.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	// Post-load: the daemon must come back to rest.
	bad := 0
	st1, err := fetchStats(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acebomb: FAIL: daemon unreachable after load:", err)
		bad++
	} else {
		bad += assertRest(base, st0, st1)
	}
	if inproc != nil {
		// In-process we can also assert our own process directly.
		if n, ok := guard.WaitGoroutines(st0.Goroutines+*flagClients+8, 5*time.Second); !ok {
			fmt.Fprintf(os.Stderr, "acebomb: FAIL: %d goroutines alive, want near baseline %d\n", n, st0.Goroutines)
			bad++
		}
		_ = ln
	}

	var total int64
	for i, k := range kinds {
		st := perKind[i]
		total += st.sent.Load()
		var line []string
		st.byStatus.Range(func(code, n any) bool {
			line = append(line, fmt.Sprintf("%d:%d", code, n.(*atomic.Int64).Load()))
			return true
		})
		v := st.violations.Load()
		fmt.Printf("acebomb: %-9s sent=%-6d %s violations=%d\n", k.name, st.sent.Load(), strings.Join(line, " "), v)
		if v > 0 {
			bad++
		}
	}
	if n := goodBodyMismatch.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "acebomb: FAIL: %d good responses differed from the library wirelist\n", n)
		bad++
	}
	rps := float64(total) / flagDuration.Seconds()
	fmt.Printf("acebomb: %d requests in %v (%.1f req/s), extractions=%d cache_hits=%d panics=%d\n",
		total, *flagDuration, rps, st1.Extractions-st0.Extractions, st1.CacheHits-st0.CacheHits, st1.Panics-st0.Panics)
	if rps < *flagMinRPS {
		fmt.Fprintf(os.Stderr, "acebomb: FAIL: %.2f req/s below -min-rps %.2f\n", rps, *flagMinRPS)
		bad++
	}
	if st1.Extractions == st0.Extractions {
		fmt.Fprintln(os.Stderr, "acebomb: FAIL: no real extractions ran; the mix never reached the engine")
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "acebomb: FAIL (%d invariants violated)\n", bad)
		os.Exit(1)
	}
	fmt.Println("acebomb: PASS")
}

// mixPick maps a request index onto the kind list: indices 0-2 good,
// 3 malformed, 4 bomb, 5 oversized, 6 bad query (good dominates, so
// throughput is measured under attack, not instead of it).
func mixPick(i int) int {
	switch i % 7 {
	case 0, 1, 2:
		return 0
	case 3:
		return 1
	case 4:
		return 2
	case 5:
		return 3
	default:
		return 4
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acebomb:", err)
	os.Exit(1)
}

// goodPayload renders the cherry benchmark chip and its reference
// wirelist (the byte-identity oracle).
func goodPayload() (src, want []byte) {
	var buf bytes.Buffer
	if err := cif.Write(&buf, gen.MustBenchChip("cherry").File); err != nil {
		fatal(err)
	}
	src = buf.Bytes()
	var cold *extract.Engine // nil: never pools
	res, err := cold.CIF(nil, src, extract.Options{})
	if err != nil {
		fatal(err)
	}
	res.Netlist.Name = "good"
	want, err = wirelist.AppendTo(nil, res.Netlist, wirelist.Options{})
	if err != nil {
		fatal(err)
	}
	return src, want
}

// bombCIF is a depth-level fanOut-way hierarchy bomb; offsets in both
// axes spread the copies across scanlines so budget checkpoints fire.
func bombCIF(depth, fanOut int) []byte {
	var b strings.Builder
	b.WriteString("DS 1; L ND; B 4 4 0 0; DF;\n")
	for d := 2; d <= depth; d++ {
		fmt.Fprintf(&b, "DS %d;", d)
		for i := 0; i < fanOut; i++ {
			fmt.Fprintf(&b, " C %d T %d %d;", d-1, i*10, i*7)
		}
		b.WriteString(" DF;\n")
	}
	fmt.Fprintf(&b, "C %d;\nE\n", depth)
	return []byte(b.String())
}

func buildKinds(base string, goodSrc []byte) []kind {
	shed := []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout}
	allow := func(codes ...int) map[int]bool {
		m := map[int]bool{}
		for _, c := range append(codes, shed...) {
			m[c] = true
		}
		return m
	}
	post := func(path string, body []byte) *http.Request {
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			fatal(err)
		}
		return req
	}
	bomb := bombCIF(10, 8)
	// One comment line past the daemon's body cap: rejected by size,
	// never parsed.
	unit := []byte("(oversize filler)\n")
	big := bytes.Repeat(unit, int(*flagBodyCap/int64(len(unit)))+2)
	malformed := [][]byte{
		[]byte("this is not CIF ;;;"),
		[]byte("DS 1; C 1; DF; C 1; E\n"),
		[]byte("L ND; B -5 10 0 0;\nE\n"),
		{0x00, 0xff, 0xfe, 'E', '\n'},
	}
	return []kind{
		{
			// A fixed name, so the mix also exercises the result cache
			// and single-flight under concurrency.
			name: "good",
			ok:   allow(http.StatusOK),
			make: func(i int) *http.Request { return post("/extract?name=good", goodSrc) },
		},
		{
			name: "malformed",
			ok:   allow(http.StatusUnprocessableEntity),
			make: func(i int) *http.Request { return post("/extract", malformed[i%len(malformed)]) },
		},
		{
			name: "bomb",
			ok:   allow(http.StatusRequestEntityTooLarge),
			make: func(i int) *http.Request { return post("/extract", bomb) },
		},
		{
			name: "oversized",
			ok:   allow(http.StatusRequestEntityTooLarge),
			make: func(i int) *http.Request { return post("/extract", big) },
		},
		{
			// Rejected before admission: shedding never applies.
			name: "badquery",
			ok:   map[int]bool{http.StatusBadRequest: true},
			make: func(i int) *http.Request { return post("/extract?lenient=maybe", goodSrc) },
		},
	}
}

func isProblemJSON(resp *http.Response, body []byte) bool {
	if resp.Header.Get("Content-Type") != "application/problem+json" {
		return false
	}
	var p serve.Problem
	if err := json.Unmarshal(body, &p); err != nil {
		return false
	}
	return p.Status == resp.StatusCode && p.Code != ""
}

// fetchStats pulls the daemon's /statz document.
func fetchStats(base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(base + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statz: %d", resp.StatusCode)
	}
	return st, json.Unmarshal(body, &st)
}

// assertRest checks the daemon settled after load: goroutines back to
// (near) baseline and peak RSS bounded. Returns the number of failed
// invariants.
func assertRest(base string, st0, st1 serve.Stats) int {
	bad := 0
	// Leaked-goroutine check via /statz, so it works against a remote
	// daemon too: poll until the count returns to baseline + slack
	// (the HTTP layer itself keeps a few idle-connection goroutines).
	slack := 16
	deadline := time.Now().Add(5 * time.Second)
	st := st1
	for {
		if st.Goroutines <= st0.Goroutines+slack {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "acebomb: FAIL: daemon goroutines %d, baseline %d (+%d slack): leak\n",
				st.Goroutines, st0.Goroutines, slack)
			bad++
			break
		}
		time.Sleep(50 * time.Millisecond)
		if s2, err := fetchStats(base); err == nil {
			st = s2
		}
	}
	if st.PeakRSSBytes > *flagMaxRSS {
		fmt.Fprintf(os.Stderr, "acebomb: FAIL: peak RSS %d bytes exceeds -max-rss %d\n", st.PeakRSSBytes, *flagMaxRSS)
		bad++
	}
	fmt.Printf("acebomb: daemon at rest: goroutines=%d (baseline %d), peak_rss=%d bytes\n",
		st.Goroutines, st0.Goroutines, st.PeakRSSBytes)
	return bad
}
