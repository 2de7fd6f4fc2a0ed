package hext

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"ace/internal/build"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
	"ace/internal/wirelist"
)

// ParseHierarchical reads a hierarchical wirelist (as produced by
// Result.WriteHierarchical) and returns the flattened netlist — "the
// hierarchical wirelist can be flattened by recursively instantiating
// all calls to subparts of the top level cell" (HEXT §4). Partial
// transistors flatten exactly: the TPart clauses carry the channel
// accumulators the writer recorded.
func ParseHierarchical(r io.Reader) (*netlist.Netlist, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseHierarchicalString(string(data))
}

// ParseHierarchicalString parses hierarchical wirelist text.
func ParseHierarchicalString(src string) (*netlist.Netlist, error) {
	forms, err := wirelist.ParseSexprs(src)
	if err != nil {
		return nil, err
	}
	p := &hierParser{windows: map[string]*hierWindow{}}
	for _, form := range forms {
		if err := p.form(form); err != nil {
			return nil, err
		}
	}
	if p.top == "" {
		return nil, fmt.Errorf("wirelist: no (Part WindowN (Name Top)) statement")
	}
	b := &build.Builder{}
	if _, _, err := p.instantiate(p.top, geom.Point{}, b, 0); err != nil {
		return nil, err
	}
	nl, _ := b.Finish()
	return nl, nil
}

// hierWindow is one parsed DefPart WindowN.
type hierWindow struct {
	name string

	// Leaf contents.
	devices []hierDevice
	names   map[int][]string // net index -> user names

	// Composed contents.
	parts      []hierPart
	netEquivs  [][2]hierRef
	partEquivs [][2]hierRef
	partTerms  []hierTerm
	netExports map[int]hierRef // parent N index -> child ref
	prtExports map[int]hierRef

	netCount  int
	partCount int
}

type hierDevice struct {
	typ            tech.DeviceType
	gate, src, drn int
	length, width  int64
	loc            geom.Point
	// Partial-transistor accumulator (slot >= 0 marks a partial).
	slot     int
	area     int64
	implArea int64
	edges    []netlist.Terminal
}

type hierPart struct {
	window string
	off    geom.Point
}

// hierRef addresses a net (isPart=false) or partial in a child part.
type hierRef struct {
	part   int // index into parts
	idx    int
	isPart bool
}

type hierTerm struct {
	part hierRef
	net  hierRef
	edge int64
}

type hierParser struct {
	windows map[string]*hierWindow
	top     string
}

func (p *hierParser) form(f wirelist.Sexpr) error {
	if len(f.List) == 0 {
		return nil
	}
	switch f.List[0].Atom {
	case "DefPart":
		if len(f.List) < 2 {
			return fmt.Errorf("wirelist: malformed DefPart")
		}
		name := f.List[1].Atom
		if !strings.HasPrefix(name, "Window") {
			return nil // the nEnh/nDep/nCap primitive declarations
		}
		return p.window(name, f.List[2:])
	case "Part":
		// The top-level instantiation: (Part WindowN (Name Top)).
		if len(f.List) >= 2 && strings.HasPrefix(f.List[1].Atom, "Window") {
			p.top = f.List[1].Atom
		}
		return nil
	}
	return fmt.Errorf("wirelist: unexpected top-level form %q", f.List[0].Atom)
}

func (p *hierParser) window(name string, clauses []wirelist.Sexpr) error {
	w := &hierWindow{
		name:       name,
		names:      map[int][]string{},
		netExports: map[int]hierRef{},
		prtExports: map[int]hierRef{},
	}
	partIndex := map[string]int{} // "P1" -> parts index
	bump := func(kind byte, idx int) {
		if kind == 'N' && idx >= w.netCount {
			w.netCount = idx + 1
		}
		if kind == 'T' && idx >= w.partCount {
			w.partCount = idx + 1
		}
	}
	for _, cl := range clauses {
		if len(cl.List) == 0 {
			continue
		}
		switch cl.List[0].Atom {
		case "Size", "Local":
			// Cosmetic for flattening; Local still names nets.
			for _, a := range cl.List[1:] {
				if idx, kind, ok := localIdx(a.Atom); ok {
					bump(kind, idx)
				}
			}
		case "Exports":
			for _, a := range cl.List[1:] {
				if idx, kind, ok := localIdx(a.Atom); ok {
					bump(kind, idx)
				}
			}
		case "Part":
			if len(cl.List) < 2 {
				return fmt.Errorf("wirelist: malformed Part in %s", name)
			}
			if strings.HasPrefix(cl.List[1].Atom, "Window") {
				hp := hierPart{window: cl.List[1].Atom}
				var pname string
				for _, sub := range cl.List[2:] {
					if len(sub.List) >= 2 && sub.List[0].Atom == "Name" {
						pname = sub.List[1].Atom
					}
					if len(sub.List) >= 3 && sub.List[0].Atom == "LocOffset" {
						x, _ := strconv.ParseInt(sub.List[1].Atom, 10, 64)
						y, _ := strconv.ParseInt(sub.List[2].Atom, 10, 64)
						hp.off = geom.Pt(x, y)
					}
				}
				partIndex[pname] = len(w.parts)
				w.parts = append(w.parts, hp)
				continue
			}
			dev, err := parseHierDevice(cl, name)
			if err != nil {
				return err
			}
			bump('N', dev.gate)
			bump('N', dev.src)
			bump('N', dev.drn)
			if dev.slot >= 0 {
				bump('T', dev.slot)
			}
			for _, e := range dev.edges {
				bump('N', e.Net)
			}
			w.devices = append(w.devices, dev)
		case "Net":
			// Either a leaf name binding (Net N0 VDD ...), a seam
			// equivalence (Net P1/N3 P2/N5), or an export binding
			// (Net N0 P1/N1).
			refs, names, err := parseRefsAndNames(cl.List[1:], partIndex)
			if err != nil {
				return fmt.Errorf("%v in %s", err, name)
			}
			switch {
			case len(refs) == 2 && refs[0].part >= 0 && refs[1].part >= 0:
				w.netEquivs = append(w.netEquivs, [2]hierRef{refs[0], refs[1]})
			case len(refs) == 2 && refs[0].part < 0 && refs[1].part >= 0:
				bump('N', refs[0].idx)
				w.netExports[refs[0].idx] = refs[1]
			case len(refs) == 1 && refs[0].part < 0:
				bump('N', refs[0].idx)
				w.names[refs[0].idx] = append(w.names[refs[0].idx], names...)
			default:
				return fmt.Errorf("wirelist: unintelligible Net clause in %s", name)
			}
		case "TPartEquiv":
			refs, _, err := parseRefsAndNames(cl.List[1:], partIndex)
			if err != nil || len(refs) != 2 {
				return fmt.Errorf("wirelist: malformed TPartEquiv in %s", name)
			}
			w.partEquivs = append(w.partEquivs, [2]hierRef{refs[0], refs[1]})
		case "TPartTerm":
			if len(cl.List) != 4 {
				return fmt.Errorf("wirelist: malformed TPartTerm in %s", name)
			}
			refs, _, err := parseRefsAndNames(cl.List[1:3], partIndex)
			if err != nil || len(refs) != 2 {
				return fmt.Errorf("wirelist: malformed TPartTerm refs in %s", name)
			}
			edge, err := strconv.ParseInt(cl.List[3].Atom, 10, 64)
			if err != nil {
				return fmt.Errorf("wirelist: bad TPartTerm edge in %s", name)
			}
			w.partTerms = append(w.partTerms, hierTerm{part: refs[0], net: refs[1], edge: edge})
		case "TPart":
			// Export binding: (TPart T0 P1/T2).
			refs, _, err := parseRefsAndNames(cl.List[1:], partIndex)
			if err != nil || len(refs) != 2 || refs[0].part >= 0 || refs[1].part < 0 {
				return fmt.Errorf("wirelist: malformed TPart export in %s", name)
			}
			bump('T', refs[0].idx)
			w.prtExports[refs[0].idx] = refs[1]
		default:
			return fmt.Errorf("wirelist: unknown clause %q in %s", cl.List[0].Atom, name)
		}
	}
	if _, dup := p.windows[name]; dup {
		return fmt.Errorf("wirelist: window %s defined twice", name)
	}
	p.windows[name] = w
	return nil
}

func parseHierDevice(cl wirelist.Sexpr, winName string) (hierDevice, error) {
	d := hierDevice{slot: -1, gate: -1, src: -1, drn: -1}
	if len(cl.List) < 2 {
		return d, fmt.Errorf("wirelist: malformed Part in %s", winName)
	}
	switch cl.List[1].Atom {
	case "nEnh":
		d.typ = tech.Enhancement
	case "nDep":
		d.typ = tech.Depletion
	case "nCap":
		d.typ = tech.Capacitor
	default:
		return d, fmt.Errorf("wirelist: unknown part %q in %s", cl.List[1].Atom, winName)
	}
	for _, sub := range cl.List[2:] {
		if len(sub.List) == 0 {
			continue
		}
		switch sub.List[0].Atom {
		case "Loc":
			if len(sub.List) == 3 {
				x, _ := strconv.ParseInt(sub.List[1].Atom, 10, 64)
				y, _ := strconv.ParseInt(sub.List[2].Atom, 10, 64)
				d.loc = geom.Pt(x, y)
			}
		case "T":
			if len(sub.List) != 3 {
				return d, fmt.Errorf("wirelist: malformed T in %s", winName)
			}
			idx, kind, ok := localIdx(sub.List[2].Atom)
			if !ok || kind != 'N' {
				return d, fmt.Errorf("wirelist: bad terminal net %q in %s", sub.List[2].Atom, winName)
			}
			switch sub.List[1].Atom {
			case "G":
				d.gate = idx
			case "S":
				d.src = idx
			case "D":
				d.drn = idx
			}
		case "Channel":
			for _, ch := range sub.List[1:] {
				if len(ch.List) == 2 {
					v, _ := strconv.ParseInt(ch.List[1].Atom, 10, 64)
					switch ch.List[0].Atom {
					case "Length":
						d.length = v
					case "Width":
						d.width = v
					}
				}
			}
		case "TPart":
			// (TPart T0 (Area a) (Impl i) (Edges (N1 e) ...))
			if len(sub.List) < 2 {
				return d, fmt.Errorf("wirelist: malformed TPart in %s", winName)
			}
			idx, kind, ok := localIdx(sub.List[1].Atom)
			if !ok || kind != 'T' {
				return d, fmt.Errorf("wirelist: bad TPart slot in %s", winName)
			}
			d.slot = idx
			for _, fact := range sub.List[2:] {
				if len(fact.List) < 2 {
					continue
				}
				switch fact.List[0].Atom {
				case "Area":
					d.area, _ = strconv.ParseInt(fact.List[1].Atom, 10, 64)
				case "Impl":
					d.implArea, _ = strconv.ParseInt(fact.List[1].Atom, 10, 64)
				case "Edges":
					for _, e := range fact.List[1:] {
						if len(e.List) != 2 {
							continue
						}
						n, _, ok := localIdx(e.List[0].Atom)
						if !ok {
							continue
						}
						ev, _ := strconv.ParseInt(e.List[1].Atom, 10, 64)
						d.edges = append(d.edges, netlist.Terminal{Net: n, Edge: ev})
					}
				}
			}
		case "Name":
			// Cosmetic.
		}
	}
	if d.gate < 0 || d.src < 0 || d.drn < 0 {
		return d, fmt.Errorf("wirelist: device missing terminals in %s", winName)
	}
	return d, nil
}

// localIdx parses "N12" or "T3".
func localIdx(s string) (int, byte, bool) {
	if len(s) < 2 || (s[0] != 'N' && s[0] != 'T') {
		return 0, 0, false
	}
	v, err := strconv.Atoi(s[1:])
	if err != nil || v < 0 {
		return 0, 0, false
	}
	return v, s[0], true
}

// parseRefsAndNames splits clause operands into child refs ("P1/N3",
// part>=0), local refs ("N3", part=-1) and plain names.
func parseRefsAndNames(atoms []wirelist.Sexpr, partIndex map[string]int) ([]hierRef, []string, error) {
	var refs []hierRef
	var names []string
	for _, a := range atoms {
		s := a.Atom
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, `"`) {
			// A quoted atom is always a name (wirelist.AppendName).
			name, err := wirelist.AtomName(s)
			if err != nil {
				return nil, nil, err
			}
			names = append(names, name)
			continue
		}
		if pname, rest, ok := strings.Cut(s, "/"); ok {
			pi, found := partIndex[pname]
			if !found {
				return nil, nil, fmt.Errorf("wirelist: unknown part %q", pname)
			}
			idx, kind, okIdx := localIdx(rest)
			if !okIdx {
				return nil, nil, fmt.Errorf("wirelist: bad ref %q", s)
			}
			refs = append(refs, hierRef{part: pi, idx: idx, isPart: kind == 'T'})
			continue
		}
		if idx, kind, ok := localIdx(s); ok {
			refs = append(refs, hierRef{part: -1, idx: idx, isPart: kind == 'T'})
			continue
		}
		names = append(names, s)
	}
	return refs, names, nil
}

// instantiate recursively flattens a window into the builder, exactly
// mirroring env.flatten over the in-memory DAG.
func (p *hierParser) instantiate(name string, off geom.Point, b *build.Builder, depth int) ([]int32, []int32, error) {
	if depth > 256 {
		return nil, nil, fmt.Errorf("wirelist: window nesting too deep (cycle?)")
	}
	w, ok := p.windows[name]
	if !ok {
		return nil, nil, fmt.Errorf("wirelist: undefined window %s", name)
	}

	nets := make([]int32, w.netCount)
	for i := range nets {
		nets[i] = -1
	}
	parts := make([]int32, w.partCount)
	for i := range parts {
		parts[i] = -1
	}

	if len(w.parts) == 0 {
		// Leaf window.
		for i := range nets {
			nets[i] = b.NewNet(off)
			for _, nm := range w.names[i] {
				b.NameNet(nets[i], nm)
			}
		}
		for _, d := range w.devices {
			dv := b.NewDev()
			loc := d.loc.Add(off)
			if d.slot >= 0 {
				// Partial: feed the accumulator facts verbatim.
				b.AddDeviceFacts(dv, d.area, d.implArea,
					geom.Rect{XMin: loc.X, YMin: loc.Y - 1, XMax: loc.X + 1, YMax: loc.Y})
				b.AddGate(dv, nets[d.gate])
				for _, e := range d.edges {
					b.AddTerm(dv, nets[e.Net], e.Edge)
				}
				parts[d.slot] = dv
				continue
			}
			// Complete device: area = L·W and both contact edges equal
			// to W reproduce the published size exactly through the
			// builder's mean-edge formula.
			impl := int64(0)
			if d.typ == tech.Depletion {
				impl = d.length * d.width
			}
			b.AddDeviceFacts(dv, d.length*d.width, impl,
				geom.Rect{XMin: loc.X, YMin: loc.Y - 1, XMax: loc.X + 1, YMax: loc.Y})
			b.AddGate(dv, nets[d.gate])
			if d.src == d.drn {
				b.AddTerm(dv, nets[d.src], d.width)
			} else {
				b.AddTerm(dv, nets[d.src], d.width)
				b.AddTerm(dv, nets[d.drn], d.width)
			}
		}
		return nets, parts, nil
	}

	// Composed window: instantiate children, apply seam equivalences.
	childNets := make([][]int32, len(w.parts))
	childParts := make([][]int32, len(w.parts))
	for i, hp := range w.parts {
		var err error
		childNets[i], childParts[i], err = p.instantiate(hp.window, off.Add(hp.off), b, depth+1)
		if err != nil {
			return nil, nil, err
		}
	}
	resolve := func(r hierRef) (int32, error) {
		if r.part < 0 || r.part >= len(w.parts) {
			return -1, fmt.Errorf("wirelist: bad child ref in %s", name)
		}
		list := childNets[r.part]
		if r.isPart {
			list = childParts[r.part]
		}
		if r.idx >= len(list) || list[r.idx] < 0 {
			return -1, fmt.Errorf("wirelist: ref %s/%d out of range in %s",
				w.parts[r.part].window, r.idx, name)
		}
		return list[r.idx], nil
	}
	for _, eq := range w.netEquivs {
		a, err := resolve(eq[0])
		if err != nil {
			return nil, nil, err
		}
		c, err := resolve(eq[1])
		if err != nil {
			return nil, nil, err
		}
		b.UnionNets(a, c)
	}
	for _, eq := range w.partEquivs {
		a, err := resolve(eq[0])
		if err != nil {
			return nil, nil, err
		}
		c, err := resolve(eq[1])
		if err != nil {
			return nil, nil, err
		}
		b.UnionDevs(a, c)
	}
	for _, pt := range w.partTerms {
		dv, err := resolve(pt.part)
		if err != nil {
			return nil, nil, err
		}
		nt, err := resolve(pt.net)
		if err != nil {
			return nil, nil, err
		}
		b.AddTerm(dv, nt, pt.edge)
	}
	for idx, rf := range w.netExports {
		id, err := resolve(rf)
		if err != nil {
			return nil, nil, err
		}
		nets[idx] = id
	}
	for idx, rf := range w.prtExports {
		id, err := resolve(rf)
		if err != nil {
			return nil, nil, err
		}
		parts[idx] = id
	}
	return nets, parts, nil
}
