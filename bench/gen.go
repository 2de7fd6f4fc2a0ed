package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"ace"
	"ace/internal/cif"
	"ace/internal/gen"
)

// Workload names.
const (
	flatChips   = "flat-chips"
	hierChips   = "hier-chips"
	tilesWindow = "tiles-window"
	serveMix    = "serve-mix"
)

var workloads = []string{flatChips, hierChips, tilesWindow, serveMix}

// hextChips is the HEXT paper's Table 5-1 set (scheme81 is ACE-only).
var hextChips = []string{"cherry", "dchip", "schip2", "testram", "psc", "riscb"}

// preset sizes the workloads. full is the benchmark; quick runs the
// same code paths on small inputs for the self-test.
type preset struct {
	flatScale, hierScale float64 // gen.Chip.Build scales
	tileBoxes            int64   // flattened boxes of the streamed chip
	tileGrid             int     // cifpack -grid
	windowsPerShape      int     // window queries per w×h tile shape, w,h ∈ 1..4

	hotDesigns             int     // distinct hot uploads
	smallGates, largeGates int     // gen.Irregular sizes of fresh uploads
	loRate, hiRate         float64 // open-loop arrival rates, req/s
	satRate                float64 // expected saturation rate, req/s: sizes the saturation list

	setupReps int // child start-ups per run; setup_s is their median
	minPasses int // pass floor of the closed loops
}

var (
	// The serve rates sit near 30% and 55% of the saturation rate that
	// serve-mix measures on the recording host, below the knee where a
	// few percent of host noise would move the latencies by half (see
	// README.md).
	fullPreset = preset{
		flatScale: 1, hierScale: 0.25, tileBoxes: 2_000_000, tileGrid: 32, windowsPerShape: 3,
		hotDesigns: 16, smallGates: 300, largeGates: 4000, loRate: 45, hiRate: 80, satRate: 150,
		setupReps: 5, minPasses: 3,
	}
	quickPreset = preset{
		flatScale: 0.05, hierScale: 0.05, tileBoxes: 50_000, tileGrid: 32, windowsPerShape: 1,
		hotDesigns: 4, smallGates: 100, largeGates: 600, loRate: 40, hiRate: 80, satRate: 150,
		setupReps: 2, minPasses: 2,
	}
)

// The serve-mix phases split the run: open-loop lo and hi, then the
// closed-loop saturation phase.
const (
	phaseLo = iota
	phaseHi
	phaseSat
)

func phaseSeconds(seconds float64) [3]float64 {
	return [3]float64{0.25 * seconds, 0.4 * seconds, 0.35 * seconds}
}

// Request classes of serve-mix, drawn in shuffled blocks of 20 (12
// hot, 7 small, 1 large) so every seed sends the same mix.
const (
	classHot = iota
	classSmall
	classLarge
)

var classBlock = [20]int{
	classHot, classHot, classHot, classHot, classHot, classHot,
	classHot, classHot, classHot, classHot, classHot, classHot,
	classSmall, classSmall, classSmall, classSmall, classSmall, classSmall, classSmall,
	classLarge,
}

// design is one generated CIF input inside the manifest's blob, with
// the generator's ground truth.
type design struct {
	Name        string `json:"name"`
	Off         int64  `json:"off"`
	Len         int64  `json:"len"`
	WantDevices int    `json:"want_devices"`
	WantNets    int    `json:"want_nets"` // 0: not checked
	Boxes       int64  `json:"boxes"`     // flattened input boxes
}

// request is one serve-mix upload. Due is the open-loop send time in
// seconds after the lo phase starts; saturation requests have none.
type request struct {
	Phase  int     `json:"phase"`
	Class  int     `json:"class"`
	Design int     `json:"design"`
	Due    float64 `json:"due_s"`
}

// manifest is what the parent generates and the child reads: the
// programs under test only ever see the CIF text in Blob.
type manifest struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Blob     string    `json:"blob"`
	Designs  []design  `json:"designs"`
	Requests []request `json:"requests,omitempty"`
	Sample   []int     `json:"sample,omitempty"` // serve: designs checked against the library after the run
	Oracle   string    `json:"oracle,omitempty"` // tiles: hash of ace.Extract's wirelist of the chip
}

// generate writes the workload's inputs into dir and returns their
// manifest. Everything random derives from seed.
func generate(workload string, seed int64, seconds float64, p preset, dir string) (*manifest, error) {
	m := &manifest{Workload: workload, Seed: seed, Blob: "designs.cif"}
	blobPath := filepath.Join(dir, m.Blob)
	f, err := os.Create(blobPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := &countWriter{w: bw}
	add := func(name string, w gen.Workload) (int, error) {
		off := cw.n
		if err := cif.Write(cw, w.File); err != nil {
			return 0, err
		}
		m.Designs = append(m.Designs, design{
			Name: name, Off: off, Len: cw.n - off,
			WantDevices: w.WantDevices, WantNets: w.WantNets, Boxes: flatBoxes(w.File),
		})
		return len(m.Designs) - 1, nil
	}

	switch workload {
	case flatChips:
		for _, c := range gen.Chips {
			if _, err := add(c.Name, c.Build(p.flatScale)); err != nil {
				return nil, err
			}
		}
	case hierChips:
		for _, name := range hextChips {
			c, _ := gen.ChipByName(name)
			if _, err := add(name, c.Build(p.hierScale)); err != nil {
				return nil, err
			}
		}
	case tilesWindow:
		info, err := gen.StreamChip(cw, gen.StreamSpec{TargetBoxes: p.tileBoxes})
		if err != nil {
			return nil, err
		}
		m.Designs = []design{{Name: "stream", Len: cw.n, WantDevices: info.Gates, Boxes: info.Boxes}}
	case serveMix:
		if err := genServe(m, add, seed, seconds, p); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if workload == tilesWindow {
		// The oracle for the tiled path is the in-RAM flat extractor on
		// the same CIF text, run here so its memory stays out of the
		// child's peak RSS.
		if m.Oracle, err = extractHash(blobPath); err != nil {
			return nil, err
		}
	}
	return m, writeJSON(filepath.Join(dir, "manifest.json"), m)
}

// genServe draws the serve-mix designs and request schedule: hot
// designs first, then one fresh design per fresh-class request, with
// Poisson arrivals in the open-loop phases. The saturation phase sends
// a fixed list of whole class blocks, about its share of the run at
// satRate, so that every run measures the same mix.
func genServe(m *manifest, add func(string, gen.Workload) (int, error), seed int64, seconds float64, p preset) error {
	rng := rand.New(rand.NewSource(seed))
	for h := 0; h < p.hotDesigns; h++ {
		if _, err := add(fmt.Sprintf("hot%d", h), gen.Irregular(p.smallGates, rng.Int63())); err != nil {
			return err
		}
	}
	var block []int
	next := func(phase int, due float64) error {
		if len(block) == 0 {
			block = append([]int(nil), classBlock[:]...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		c := block[0]
		block = block[1:]
		r := request{Phase: phase, Class: c, Due: due}
		switch c {
		case classHot:
			r.Design = rng.Intn(p.hotDesigns)
		case classSmall, classLarge:
			gates := p.smallGates
			if c == classLarge {
				gates = p.largeGates
			}
			d, err := add(fmt.Sprintf("fresh%d", len(m.Designs)), gen.Irregular(gates, rng.Int63()))
			if err != nil {
				return err
			}
			r.Design = d
		}
		m.Requests = append(m.Requests, r)
		return nil
	}

	secs := phaseSeconds(seconds)
	t, end := 0.0, 0.0
	for phase, rate := range []float64{p.loRate, p.hiRate} {
		end += secs[phase]
		for {
			t += rng.ExpFloat64() / rate
			if t >= end {
				break
			}
			if err := next(phase, t); err != nil {
				return err
			}
		}
		t = end
	}
	for i := 0; i < len(classBlock)*int(math.Ceil(p.satRate*secs[phaseSat]/float64(len(classBlock)))); i++ {
		if err := next(phaseSat, 0); err != nil {
			return err
		}
	}

	// The post-run library check samples designs the open loop sent.
	seen := map[int]bool{}
	var open []int
	for _, r := range m.Requests {
		if r.Phase != phaseSat && !seen[r.Design] {
			seen[r.Design] = true
			open = append(open, r.Design)
		}
	}
	rng.Shuffle(len(open), func(i, j int) { open[i], open[j] = open[j], open[i] })
	m.Sample = open[:min(64, len(open))]
	return nil
}

// flatBoxes counts a design's boxes as instantiated, the input size
// every throughput metric is quoted in: each call contributes its
// symbol's count. The generators place only boxes, so this equals the
// number of boxes the extractor's front end delivers.
func flatBoxes(f *cif.File) int64 {
	memo := map[int]int64{}
	var count func(items []cif.Item) int64
	count = func(items []cif.Item) int64 {
		var n int64
		for _, it := range items {
			switch it.Kind {
			case cif.ItemBox:
				n++
			case cif.ItemCall:
				c, ok := memo[it.SymbolID]
				if !ok {
					c = count(f.Symbols[it.SymbolID].Items)
					memo[it.SymbolID] = c
				}
				n += c
			}
		}
		return n
	}
	return count(f.Top)
}

// extractHash runs the flat extractor on a CIF file and hashes its
// wirelist without holding it in memory.
func extractHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	res, err := ace.Extract(bufio.NewReader(f), ace.Options{})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := ace.WriteWirelist(h, res.Netlist, ace.WirelistOptions{}); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func hashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
