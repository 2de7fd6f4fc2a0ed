package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ace"
	"ace/internal/prof"
	"ace/internal/serve"
)

// clientConns is the number of keep-alive connections the serve-mix
// client drives: the recording host's nproc, fixed so that results
// stay comparable across hosts.
const clientConns = 2

// satSlices alternate untraced and traced recording in a traced run's
// saturation phase, which measures the tracing overhead.
const satSlices = 8

// serveRunner drives serve-mix against a child aced with a fresh cache
// directory and default limits.
type serveRunner struct {
	aced     *exec.Cmd
	stdout   chan struct{} // closed once aced's stdout is drained
	url      string
	admin    *http.Client // /healthz and /statz
	cacheDir string
	blob     []byte
}

func (r *serveRunner) setup(c *childConfig, m *manifest) error {
	blob, err := os.ReadFile(filepath.Join(c.dir, m.Blob))
	if err != nil {
		return err
	}
	r.blob = blob
	r.cacheDir = filepath.Join(c.dir, fmt.Sprintf("cache-%d", os.Getpid()))
	// The cache cap is raised above what one run writes (~500 MB): the
	// store's eviction pass starts whenever the default 256 MiB cap is
	// crossed, and that moment varies enough between runs to swamp the
	// latencies. Every other limit is aced's default.
	cmd := exec.Command(filepath.Join(c.bin, "aced"), "-addr", "127.0.0.1:0",
		"-cache-dir", r.cacheDir, "-cache-max-bytes", strconv.Itoa(4<<30))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	r.aced = cmd
	// aced prints its resolved address first; a daemon that never does
	// is killed, which ends the read.
	kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	br := bufio.NewReader(pipe)
	line, err := br.ReadString('\n')
	kill.Stop()
	r.stdout = make(chan struct{})
	go func() {
		io.Copy(io.Discard, br)
		close(r.stdout)
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "aced: listening on ")
	if err != nil || !ok {
		return fmt.Errorf("aced did not report its address (%q, %v)", line, err)
	}
	r.url = "http://" + addr

	r.admin = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := r.admin.Get(r.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("aced /healthz not ready: %v", err)
		}
	}
}

// close drains aced with SIGTERM, as an operator would, and waits for
// it to exit.
func (r *serveRunner) close() {
	if r.admin != nil {
		r.admin.CloseIdleConnections()
	}
	if r.aced != nil {
		r.aced.Process.Signal(syscall.SIGTERM)
		kill := time.AfterFunc(20*time.Second, func() { r.aced.Process.Kill() })
		if r.stdout != nil {
			<-r.stdout
		}
		r.aced.Wait()
		kill.Stop()
	}
	if r.cacheDir != "" {
		os.RemoveAll(r.cacheDir)
	}
}

// sent is one request's timeline and outcome.
type sent struct {
	due, enq, dispatch, done, checked time.Time
	hash                              string
	problem                           string // non-empty: the request failed
}

func (r *serveRunner) run(c *childConfig, m *manifest, tr *tracer, rep *report) {
	secs := phaseSeconds(c.seconds)
	reqs := m.Requests
	recs := make([]sent, len(reqs))
	var open, sat []int
	for i, q := range reqs {
		if q.Phase == phaseSat {
			sat = append(sat, i)
		} else {
			open = append(open, i)
		}
	}
	st0, err := r.statz()
	if err != nil {
		rep.fail("statz: %v", err)
		return
	}
	// The host is probed before, between and after the phases, when
	// neither the client nor the daemon is busy.
	cal := newCalibrator()
	bursts := []float64{cal.burst()} // host factors
	gc0 := prof.CaptureGC()
	clients := make([]*http.Client, clientConns)
	for k := range clients {
		clients[k] = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}}
		defer clients[k].CloseIdleConnections()
	}

	var mu sync.Mutex // guards hotRef and tr
	hotRef := map[int]string{}
	send := func(cl *http.Client, buf *bytes.Buffer, i int, traced bool) {
		q, rec := reqs[i], &recs[i]
		d := m.Designs[q.Design]
		rec.dispatch = time.Now()
		status, body, err := post(cl, r.url, r.blob[d.Off:d.Off+d.Len], buf)
		rec.done = time.Now()
		switch {
		case err != nil:
			rec.problem = err.Error()
		case status != http.StatusOK:
			rec.problem = fmt.Sprintf("status %d", status)
		default:
			rec.problem = checkCounts(body, d)
			rec.hash = hashBytes(body)
		}
		if q.Class == classHot && rec.problem == "" {
			mu.Lock()
			if ref, ok := hotRef[q.Design]; !ok {
				hotRef[q.Design] = rec.hash
			} else if ref != rec.hash {
				rec.problem = "hot design answered with different bytes"
			}
			mu.Unlock()
		}
		rec.checked = time.Now()
		if traced {
			mu.Lock()
			root := tr.rootAt("request", rec.due, rec.checked)
			tr.spanAt(root, "gen.late", rec.due, rec.enq)
			tr.spanAt(root, "client.wait", rec.enq, rec.dispatch)
			tr.spanAt(root, "serve.rtt", rec.dispatch, rec.done)
			tr.spanAt(root, "client.check", rec.done, rec.checked)
			mu.Unlock()
		}
	}

	// Open loop: the dispatcher hands each request to the connections
	// at its due time, whatever is still in flight.
	var wg sync.WaitGroup
	epoch := time.Now()
	queue := make(chan int, len(open)) // sized to the number of sends
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for _, i := range open {
			recs[i].due = epoch.Add(time.Duration(reqs[i].Due * float64(time.Second)))
			time.Sleep(time.Until(recs[i].due))
			recs[i].enq = time.Now()
			queue <- i
		}
	}()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				send(cl, &buf, i, c.trace)
			}
		}(cl)
	}
	wg.Wait()
	gc := prof.CaptureGC().Delta(gc0)
	bursts = append(bursts, cal.burst())
	gc0 = prof.CaptureGC()

	// Saturation: closed loop on the same connections, each sending the
	// next request of the fixed list as soon as its previous one is
	// answered.
	satStart := time.Now()
	slice := time.Duration(secs[phaseSat] * float64(time.Second) / satSlices)
	var next atomic.Int64
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for j := int(next.Add(1) - 1); j < len(sat); j = int(next.Add(1) - 1) {
				now := time.Now()
				i := sat[j]
				recs[i].due, recs[i].enq = now, now
				send(cl, &buf, i, c.trace && int(now.Sub(satStart)/slice)%2 == 1)
			}
		}(cl)
	}
	wg.Wait()
	gc = addGC(gc, prof.CaptureGC().Delta(gc0))
	bursts = append(bursts, cal.burst())
	st1, err := r.statz()
	if err != nil {
		rep.fail("statz: %v", err)
		return
	}

	// Account for every request sent, then check a seeded sample of
	// the answered designs byte for byte against the library.
	answer := map[int]string{}
	var satEnd time.Time
	var satOK, satBoxes float64
	var satOKSlice [2]float64 // by slice parity: untraced, traced
	for i, rec := range recs {
		if rec.dispatch.IsZero() {
			continue
		}
		rep.Attempted++
		q := reqs[i]
		if rec.problem != "" {
			rep.fail("request %d (%s): %s", i, m.Designs[q.Design].Name, rec.problem)
			continue
		}
		if _, ok := answer[q.Design]; !ok {
			answer[q.Design] = rec.hash
		}
		if q.Phase == phaseSat {
			satOK++
			satBoxes += float64(m.Designs[q.Design].Boxes)
			if rec.done.After(satEnd) {
				satEnd = rec.done
			}
			satOKSlice[int(rec.dispatch.Sub(satStart)/slice)%2]++
		}
	}
	for _, id := range m.Sample {
		rep.Attempted++
		d := m.Designs[id]
		want, err := libraryHash(r.blob[d.Off : d.Off+d.Len])
		switch {
		case err != nil:
			rep.fail("library %s: %v", d.Name, err)
		case answer[id] == "":
			rep.fail("library check %s: never answered", d.Name)
		case answer[id] != want:
			rep.fail("library check %s: aced bytes differ from ace.Extract", d.Name)
		}
	}
	var order []string
	for _, i := range open {
		order = append(order, fmt.Sprint(reqs[i].Class, reqs[i].Design, recs[i].hash))
	}
	rep.Digest = digest(order)

	lat := func(phase, class int) []float64 {
		var out []float64
		for _, i := range open {
			q := reqs[i]
			if q.Phase == phase && (class < 0 || q.Class == class) {
				out = append(out, ms(recs[i].done.Sub(recs[i].due)))
			}
		}
		return out
	}
	satWall := satEnd.Sub(satStart).Seconds()
	var late []float64
	for _, i := range open {
		late = append(late, ms(recs[i].enq.Sub(recs[i].due)))
	}
	if p := percentile(late, 99); p > 5 {
		fmt.Fprintf(os.Stderr, "bench: warning: the load generator ran late (p99 %.1f ms); latencies include that delay\n", p)
	}
	v := rep.Values
	if !c.trace {
		// The median is taken over the fresh small uploads, the requests
		// that run the pipeline: the median of the whole mix falls between
		// cache hits and extractions, where it swings with every arrival
		// pattern. The tail (p98, the highest percentile with ten samples
		// beyond it) covers every request. The open loop's latencies take
		// the mean host factor of the probes around it, the saturation
		// rate that of the probes around the saturation phase.
		e2e := func(fOpen, fSat float64) map[string]float64 {
			return map[string]float64{
				"boxes_per_s": ratio(satBoxes, satWall) * fSat,
				"p50_ms":      median(lat(phaseHi, classSmall)) / fOpen,
				"tail_ms":     percentile(lat(phaseHi, -1), 98) / fOpen,
			}
		}
		cal.log(e2e(1, 1))
		maps.Copy(v, e2e((bursts[0]+bursts[1])/2, (bursts[1]+bursts[2])/2))
		v["peak_rss_mib"] = float64(st1.PeakRSSBytes) / (1 << 20)
		return
	}
	var wait, total float64
	for _, i := range open {
		if rec := recs[i]; reqs[i].Phase == phaseHi {
			wait += rec.dispatch.Sub(rec.enq).Seconds()
			total += rec.done.Sub(rec.due).Seconds()
		}
	}
	hiTail := percentile(lat(phaseHi, -1), 98)
	v["serve.wait_pct"] = pct(wait, total)
	v["serve.small_tail_ratio"] = ratio(percentile(lat(phaseHi, classSmall), 98), hiTail)
	v["serve.load_tail_ratio"] = ratio(hiTail, percentile(lat(phaseLo, -1), 98))
	v["serve.sat_rps"] = ratio(satOK, satWall)
	accepted := float64(st1.Accepted - st0.Accepted)
	v["serve.hit_ratio"] = ratio(float64(st1.CacheHits-st0.CacheHits), accepted)
	v["serve.extractions"] = float64(st1.Extractions - st0.Extractions)
	v["serve.dedup_waits"] = float64(st1.DedupWaits - st0.DedupWaits)
	v["serve.shed"] = float64(shed(st1) - shed(st0))
	v["store.entries"] = float64(st1.CacheEntries)
	v["store.bytes"] = float64(st1.CacheBytes)
	v["store.errors"] = float64(st1.CacheGetErrors + st1.CachePutErrors - st0.CacheGetErrors - st0.CachePutErrors)
	v["gen.late_p99_ms"] = percentile(late, 99)
	gcValues(rep, gc)
	var sliceTime [2]float64 // seconds of the saturation phase by slice parity
	for k := 0; float64(k)*slice.Seconds() < satWall; k++ {
		sliceTime[k%2] += min(slice.Seconds(), satWall-float64(k)*slice.Seconds())
	}
	v["trace.overhead_pct"] = 100 * (ratio(satOKSlice[0]/sliceTime[0], satOKSlice[1]/sliceTime[1]) - 1)
	v["trace.unattributed_pct"] = tr.sums("request").selfPct("unattributed")
}

func shed(s serve.Stats) int64 {
	return s.ShedQueueFull + s.ShedQueueWait + s.ShedTenant + s.ShedDrain
}

// post uploads one design as a raw body and reads the whole answer
// into buf.
func post(cl *http.Client, url string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	resp, err := cl.Post(url+"/extract", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

func (r *serveRunner) statz() (serve.Stats, error) {
	var st serve.Stats
	resp, err := r.admin.Get(r.url + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// libraryHash is what aced must answer for an upload: the flat
// extractor's wirelist under the daemon's default part name.
func libraryHash(cifText []byte) (string, error) {
	res, err := ace.Extract(bytes.NewReader(cifText), ace.Options{})
	if err != nil {
		return "", err
	}
	res.Netlist.Name = "upload"
	var b bytes.Buffer
	if err := ace.WriteWirelist(&b, res.Netlist, ace.WirelistOptions{}); err != nil {
		return "", err
	}
	return hashBytes(b.Bytes()), nil
}
