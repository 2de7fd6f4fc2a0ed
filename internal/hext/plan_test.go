package hext

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"

	"ace/internal/cif"
	"ace/internal/gen"
	"ace/internal/geom"
)

// planGolden is one HEXT chip's plan at scale 0.05: the SHA-256 of the
// top window's memo key (the "f:" and "w:" address of the whole
// design), a SHA-256 over every window memo key and leaf content key
// the run produced (each prefixed "w:" or "s:" as hashed), and the plan
// counters.
type planGolden struct {
	chip                  string
	topKey, allKeys       string
	unique, flat, compose int
	memoHits, leafSweeps  int
}

// planGoldens were recorded with the per-record key builder and the
// linear-scan cut search. The top key is a persisted store address: if
// it changes, every existing disk cache misses without any error.
var planGoldens = []planGolden{
	{"cherry", "04eb02b92484ac98276599412ec19172deba72a727bcb70679258abbb7e1cd1c", "cd3bbb938841ebbab2b578c5b2b274f591cf3186a0b837cd348deb55174f262a", 77, 29, 43, 15, 12},
	{"dchip", "907eb42019dc9c817d4e250a9eacad71c7c5f916686e80e4de263004c1dd3391", "c5fe6296275a73d7d0c9a1869498bf6d71191dcbe976c7b03f52a9130e2f2f1b", 209, 69, 132, 64, 18},
	{"schip2", "d5c92e35f3f9bff07bb1415169ba3e0ad4ca7b8608efccb892ad3d80899caeed", "ff0bdbe2905f80fff19364be59c99af7de8e2e0e538c8556c1ba8b687e01eb9c", 742, 216, 523, 308, 78},
	{"testram", "985d43e7f2e013a201d61ba87ee85b588627c125799a58b78d31c6eec0ed776e", "ad1b6dc135233d767037df306285e3fb75595f7e37166c491aa4269d53dc0ad4", 51, 7, 41, 35, 2},
	{"psc", "295cfed51b4e67ed1ee454575f3091947092434d34f18c952ca229ce2707d975", "357c2af21da8f58240c10be5a47f09c3d8233e2d245d29f73b6aaf8d5fd75e2a", 1236, 370, 858, 489, 92},
	{"riscb", "91d9c6887f544fe741bd9f454f13f55ddd87eba84981756349483fd175796ff0", "b29a61c731735e25efc7e824a3cd6c37be25353902d9a7e91b4d33d57311afe7", 673, 190, 475, 286, 56},
}

func TestPlanGolden(t *testing.T) {
	for _, g := range planGoldens {
		t.Run(g.chip, func(t *testing.T) {
			got := recordPlan(t, g.chip)
			if got != g {
				t.Errorf("plan changed:\n got %+v\nwant %+v", got, g)
			}
		})
	}
}

func recordPlan(t *testing.T, chip string) planGolden {
	t.Helper()
	c, ok := gen.ChipByName(chip)
	if !ok {
		t.Fatalf("no chip %s", chip)
	}
	f := c.Build(0.05).File
	top, _ := f.TopSymbol()
	e := newTestEnv(f)
	win, _, ok := e.newTopWindow(top)
	if !ok {
		t.Fatalf("%s: no top window", chip)
	}
	topSum := sha256.Sum256(e.key(win))

	s := NewSession(Options{})
	res, err := s.Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range s.memo {
		keys = append(keys, "w:"+k)
	}
	for k := range s.sweeps {
		keys = append(keys, "s:"+k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write(binary.AppendUvarint(nil, uint64(len(k))))
		h.Write([]byte(k))
	}
	cn := res.Counters
	return planGolden{
		chip:    chip,
		topKey:  hex.EncodeToString(topSum[:]),
		allKeys: hex.EncodeToString(h.Sum(nil)),
		unique:  cn.UniqueWindows, flat: cn.FlatCalls, compose: cn.ComposeCalls,
		memoHits: cn.MemoHits, leafSweeps: cn.LeafSweeps,
	}
}

// chooseCutLinear is the reference cut search: every candidate is
// checked against every instance box. chooseCut must pick the same cut.
func (e *env) chooseCutLinear(win window) (axis byte, at int64, ok bool) {
	var xs, ys []int64
	var insts []geom.Rect
	for _, it := range win.items {
		if it.kind != cif.ItemCall {
			continue
		}
		bb := it.trans.ApplyRect(e.symList[it.ref].bbox)
		insts = append(insts, bb)
		xs = append(xs, bb.XMin, bb.XMax)
		ys = append(ys, bb.YMin, bb.YMax)
	}
	valid := func(axis byte, at int64) bool {
		if axis == 'x' {
			if at <= 0 || at >= win.w {
				return false
			}
			for _, bb := range insts {
				if bb.XMin < at && at < bb.XMax {
					return false
				}
			}
		} else {
			if at <= 0 || at >= win.h {
				return false
			}
			for _, bb := range insts {
				if bb.YMin < at && at < bb.YMax {
					return false
				}
			}
		}
		return true
	}
	seamCost := func(axis byte, at int64) int64 {
		var cost int64
		for _, it := range win.items {
			if it.kind != cif.ItemBox {
				continue
			}
			if axis == 'x' {
				if it.box.XMin < at && at < it.box.XMax {
					cost++
				}
			} else {
				if it.box.YMin < at && at < it.box.YMax {
					cost++
				}
			}
		}
		return cost
	}
	best := func(axis byte, cands []int64, mid int64) (int64, bool) {
		found := false
		var bestAt, bestScore int64
		for _, c := range cands {
			if !valid(axis, c) {
				continue
			}
			d := c - mid
			if d < 0 {
				d = -d
			}
			score := d
			if e.fracture == FractureMinCut {
				span := win.w
				if axis == 'y' {
					span = win.h
				}
				score = seamCost(axis, c)*span + d
			}
			if !found || score < bestScore {
				found, bestAt, bestScore = true, c, score
			}
		}
		return bestAt, found
	}
	tryX := func() (byte, int64, bool) {
		if at, ok := best('x', append(xs, win.w/2), win.w/2); ok {
			return 'x', at, true
		}
		return 0, 0, false
	}
	tryY := func() (byte, int64, bool) {
		if at, ok := best('y', append(ys, win.h/2), win.h/2); ok {
			return 'y', at, true
		}
		return 0, 0, false
	}
	if win.w >= win.h {
		if a, v, ok := tryX(); ok {
			return a, v, true
		}
		return tryY()
	}
	if a, v, ok := tryY(); ok {
		return a, v, true
	}
	return tryX()
}

// TestChooseCutMatchesLinearScan checks the interval-merged cut search
// against the linear scan over random instance sets: overlapping,
// nested, abutting, degenerate and out-of-window instances, under both
// fracture strategies.
func TestChooseCutMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Symbols of assorted sizes, including zero-width and zero-height
	// ones, whose bounding boxes are empty along one axis.
	f := &cif.File{Symbols: map[int]*cif.Symbol{}}
	sizes := [][2]int64{{1, 1}, {2, 5}, {10, 3}, {0, 4}, {6, 0}, {25, 25}, {3, 40}}
	for id, sz := range sizes {
		f.Symbols[id+1] = &cif.Symbol{ID: id + 1, Items: []cif.Item{{
			Kind: cif.ItemBox, Box: geom.R(0, 0, sz[0], sz[1]),
		}}}
	}
	orients := []geom.Transform{
		geom.Identity, {B: -1, D: 1}, {A: -1, E: -1}, {B: 1, D: -1},
		geom.MirrorX(), geom.MirrorY(),
	}
	agreed := map[bool]int{}
	for trial := 0; trial < 4000; trial++ {
		e := newTestEnv(f)
		if trial%2 == 1 {
			e.fracture = FractureMinCut
		}
		win := window{w: 1 + rng.Int63n(60), h: 1 + rng.Int63n(60)}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			x, y := rng.Int63n(win.w+10)-5, rng.Int63n(win.h+10)-5
			id := 1 + rng.Intn(len(sizes))
			win.items = append(win.items, e.callItem(id, orients[rng.Intn(len(orients))].Then(geom.Translate(x, y))))
		}
		for i, n := 0, rng.Intn(20); i < n; i++ {
			x, y := rng.Int63n(win.w), rng.Int63n(win.h)
			win.items = append(win.items, witem{
				kind: cif.ItemBox,
				box:  geom.R(x, y, x+rng.Int63n(win.w-x+1), y+rng.Int63n(win.h-y+1)),
			})
		}
		rng.Shuffle(len(win.items), func(i, j int) { win.items[i], win.items[j] = win.items[j], win.items[i] })

		ga, gat, gok := e.chooseCut(win)
		wa, wat, wok := e.chooseCutLinear(win)
		if ga != wa || gat != wat || gok != wok {
			t.Fatalf("trial %d (%dx%d, %d items, fracture %d): chooseCut = (%q, %d, %v), linear scan = (%q, %d, %v)",
				trial, win.w, win.h, len(win.items), e.fracture, ga, gat, gok, wa, wat, wok)
		}
		agreed[gok]++
		if !gok {
			continue
		}
		// The instance box rides with the call through the split.
		a, b := e.splitWindow(win, ga, gat)
		for _, side := range []window{a, b} {
			for _, it := range side.items {
				if it.kind != cif.ItemCall {
					continue
				}
				if want := it.trans.ApplyRect(e.symList[it.ref].bbox); it.box != want {
					t.Fatalf("trial %d: split call box %v, want %v", trial, it.box, want)
				}
			}
		}
	}
	// Both outcomes must be exercised for the comparison to mean much.
	if agreed[true] < 100 || agreed[false] < 100 {
		t.Fatalf("random sets too one-sided: %d with a cut, %d without", agreed[true], agreed[false])
	}
}
