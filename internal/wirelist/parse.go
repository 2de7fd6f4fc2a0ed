package wirelist

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// Parse reads a flat wirelist (as produced by Write) back into a
// netlist. Geometry clauses are parsed when present.
func Parse(r io.Reader) (*netlist.Netlist, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(data))
}

// ParseString parses a flat wirelist from text.
func ParseString(src string) (*netlist.Netlist, error) {
	sx, err := parseSexpr(src)
	if err != nil {
		return nil, err
	}
	if len(sx) != 1 {
		return nil, fmt.Errorf("wirelist: expected one top-level DefPart, found %d", len(sx))
	}
	top := sx[0]
	if len(top.List) < 2 || top.List[0].Atom != "DefPart" {
		return nil, fmt.Errorf("wirelist: top form is not a named DefPart")
	}
	name, err := AtomName(top.List[1].Atom)
	if err != nil {
		return nil, err
	}
	nl := &netlist.Netlist{Name: name}

	netIdx := map[string]int{}
	netOf := func(name string) int {
		if i, ok := netIdx[name]; ok {
			return i
		}
		i := len(nl.Nets)
		netIdx[name] = i
		nl.Nets = append(nl.Nets, netlist.Net{})
		return i
	}

	for _, form := range top.List[2:] {
		if len(form.List) == 0 {
			continue
		}
		switch form.List[0].Atom {
		case "DefPart":
			// Primitive declarations (nEnh etc.): nothing to record.
		case "Part":
			dev, err := parseDevice(form, netOf)
			if err != nil {
				return nil, err
			}
			nl.Devices = append(nl.Devices, dev)
		case "Net":
			if err := parseNet(form, nl, netOf); err != nil {
				return nil, err
			}
		case "Local":
			// Scope information; flat netlists need nothing from it.
		default:
			return nil, fmt.Errorf("wirelist: unknown form %q", form.List[0].Atom)
		}
	}
	return nl, nil
}

func parseDevice(form sexpr, netOf func(string) int) (netlist.Device, error) {
	var d netlist.Device
	if len(form.List) < 2 {
		return d, fmt.Errorf("wirelist: malformed Part")
	}
	typ, ok := deviceTypeByName(form.List[1].Atom)
	if !ok {
		return d, fmt.Errorf("wirelist: unknown part type %q", form.List[1].Atom)
	}
	d.Type = typ
	gate, source, drain := -1, -1, -1
	for _, cl := range form.List[2:] {
		if len(cl.List) == 0 {
			continue
		}
		switch cl.List[0].Atom {
		case "Location":
			x, y, err := twoInts(cl, 1)
			if err != nil {
				return d, err
			}
			d.Location = geom.Pt(x, y)
		case "T":
			if len(cl.List) != 3 {
				return d, fmt.Errorf("wirelist: malformed T clause")
			}
			n := netOf(cl.List[2].Atom)
			switch cl.List[1].Atom {
			case "Gate":
				gate = n
			case "Source":
				source = n
			case "Drain":
				drain = n
			default:
				return d, fmt.Errorf("wirelist: unknown terminal %q", cl.List[1].Atom)
			}
		case "Channel":
			for _, ch := range cl.List[1:] {
				if len(ch.List) == 2 {
					v, err := strconv.ParseInt(ch.List[1].Atom, 10, 64)
					if err != nil {
						continue
					}
					switch ch.List[0].Atom {
					case "Length":
						d.Length = v
					case "Width":
						d.Width = v
					}
				}
			}
		case "InstName":
			// Cosmetic.
		}
	}
	if gate < 0 || source < 0 || drain < 0 {
		return d, fmt.Errorf("wirelist: device missing terminals")
	}
	d.Gate, d.Source, d.Drain = gate, source, drain
	d.Area = d.Length * d.Width
	d.Terminals = []netlist.Terminal{{Net: source}, {Net: drain}}
	return d, nil
}

func parseNet(form sexpr, nl *netlist.Netlist, netOf func(string) int) error {
	if len(form.List) < 2 {
		return fmt.Errorf("wirelist: malformed Net")
	}
	idx := netOf(form.List[1].Atom)
	for _, cl := range form.List[2:] {
		if cl.Atom != "" {
			name, err := AtomName(cl.Atom)
			if err != nil {
				return err
			}
			nl.Nets[idx].Names = append(nl.Nets[idx].Names, name)
			continue
		}
		if len(cl.List) >= 1 && cl.List[0].Atom == "Location" {
			x, y, err := twoInts(cl, 1)
			if err != nil {
				return err
			}
			nl.Nets[idx].Location = geom.Pt(x, y)
		}
		if len(cl.List) == 2 && cl.List[0].Atom == "CIF" {
			g, err := parseGeometryClause(cl.List[1].Atom)
			if err != nil {
				return fmt.Errorf("wirelist: net %s: %v", form.List[1].Atom, err)
			}
			nl.Nets[idx].Geometry = append(nl.Nets[idx].Geometry, g...)
		}
	}
	return nil
}

// parseGeometryClause reads the quoted geometry string of a ( CIF "…")
// clause: a sequence of "L <layer>;" and "B L<len> W<wid> C<cx> <cy>;"
// commands — the dialect of Figure 3-4. It lets the R/C post-processor
// work from the wirelist file alone, exactly the flow ACE §2 intends
// ("this information is enough for a post-processing program to
// compute capacitances and resistances").
func parseGeometryClause(quoted string) ([]netlist.LayerRect, error) {
	s := strings.Trim(quoted, `"`)
	var out []netlist.LayerRect
	layer := tech.Layer(-1)
	for _, cmd := range strings.Split(s, ";") {
		fields := strings.Fields(cmd)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "L":
			if len(fields) != 2 {
				return nil, fmt.Errorf("malformed layer command %q", cmd)
			}
			l, ok := tech.LayerByCIFName(fields[1])
			if !ok {
				layer = -1 // unknown layers are skipped
				continue
			}
			layer = l
		case "B":
			if len(fields) != 5 || !strings.HasPrefix(fields[1], "L") ||
				!strings.HasPrefix(fields[2], "W") || !strings.HasPrefix(fields[3], "C") {
				return nil, fmt.Errorf("malformed box command %q", cmd)
			}
			length, err1 := strconv.ParseInt(fields[1][1:], 10, 64)
			width, err2 := strconv.ParseInt(fields[2][1:], 10, 64)
			cx, err3 := strconv.ParseInt(fields[3][1:], 10, 64)
			cy, err4 := strconv.ParseInt(fields[4], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fmt.Errorf("bad numbers in %q", cmd)
			}
			if layer < 0 {
				continue
			}
			out = append(out, netlist.LayerRect{
				Layer: layer,
				Rect:  geom.RectCWH(length, width, geom.Pt(cx, cy)),
			})
		default:
			return nil, fmt.Errorf("unknown geometry command %q", cmd)
		}
	}
	return out, nil
}

func twoInts(s sexpr, at int) (int64, int64, error) {
	if len(s.List) < at+2 {
		return 0, 0, fmt.Errorf("wirelist: expected two integers")
	}
	x, err := strconv.ParseInt(s.List[at].Atom, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("wirelist: bad integer %q", s.List[at].Atom)
	}
	y, err := strconv.ParseInt(s.List[at+1].Atom, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("wirelist: bad integer %q", s.List[at+1].Atom)
	}
	return x, y, nil
}

// AtomName returns the name an atom spells: a quoted atom (as
// AppendName writes awkward names) unquoted, any other atom as is.
func AtomName(atom string) (string, error) {
	if !strings.HasPrefix(atom, `"`) {
		return atom, nil
	}
	name, err := strconv.Unquote(atom)
	if err != nil {
		return "", fmt.Errorf("wirelist: bad quoted name %s", atom)
	}
	return name, nil
}

// Sexpr is either an atom (Atom != "") or a list — the wirelist
// format's LISP-like building block. Exported so the hierarchical
// wirelist reader (internal/hext) shares the tokenizer.
type Sexpr struct {
	Atom string
	List []Sexpr
}

// ParseSexprs reads a sequence of s-expressions from wirelist text.
func ParseSexprs(src string) ([]Sexpr, error) { return parseSexpr(src) }

// sexpr aliases the exported form; the flat parser predates it.
type sexpr = Sexpr

func parseSexpr(src string) ([]sexpr, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	var stack [][]sexpr
	cur := []sexpr{}
	for _, t := range toks {
		switch t {
		case "(":
			stack = append(stack, cur)
			cur = []sexpr{}
		case ")":
			if len(stack) == 0 {
				return nil, fmt.Errorf("wirelist: unbalanced ')'")
			}
			parent := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			parent = append(parent, sexpr{List: cur})
			cur = parent
		default:
			cur = append(cur, sexpr{Atom: t})
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("wirelist: unbalanced '('")
	}
	return cur, nil
}

func tokenize(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '"':
			// A backslash escapes the next byte, so a quoted name may
			// hold quotes (AtomName unquotes it).
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("wirelist: unterminated string")
			}
			toks = append(toks, src[i:j+1])
			i = j + 1
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		default:
			j := i
			for j < len(src) && !strings.ContainsRune("() \t\n\r\"", rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks, nil
}
