package cif

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/tech"
)

// ParseOptions harden a parse against hostile input. The zero value
// imposes no budgets (beyond the overflow checks, which are always
// on) and selects the strict, fail-fast error contract.
type ParseOptions struct {
	// Limits.MaxBoxes caps the number of geometry items (boxes,
	// polygons, wires, calls, labels) the parser will accept; excess
	// input fails with a line-located *guard.LimitError. Budgets bind
	// in lenient mode too: they are resource protection, not input
	// validation, so a budget violation always aborts.
	Limits guard.Limits

	// Lenient selects the fail-soft error contract: a parse error is
	// recorded as a located diagnostic in File.Diagnostics and the
	// parser resynchronises at the next ';' command terminator (or, for
	// damage to a DS definition header, at the next DF command or E),
	// salvaging every well-formed command instead of aborting. Strict
	// mode (the default) fails on the first error with the same located
	// message it always has.
	Lenient bool

	// Diag caps the diagnostics recorded per parse; the zero value
	// applies diag.DefaultMaxDiagnostics.
	Diag diag.Limits

	// Arena, when non-nil, supplies the parser's reusable allocation
	// state. Starting a parse with an Arena invalidates every File a
	// previous parse with the same Arena returned; see Arena.
	Arena *Arena
}

// Error is a located parse error with a stable diagnostic code. Its
// rendered text is byte-for-byte the historical "cif: line N: message"
// form, so strict-mode callers see exactly the errors they always
// have; lenient mode records the same information as a diagnostic and
// keeps going.
type Error struct {
	Code string    // stable diagnostic code, e.g. "missing-semicolon"
	Span diag.Span // where parsing stalled
	Msg  string    // the located message body
	Err  error     // wrapped cause (geom.ErrOverflow, …), may be nil
}

func (e *Error) Error() string {
	return fmt.Sprintf("cif: line %d: %s", e.Span.Line, e.Msg)
}

func (e *Error) Unwrap() error { return e.Err }

// StructError is a whole-file structural defect — a call to an
// undefined symbol, or a recursive symbol definition. It has no single
// source line to point at, but like *Error it is a property of the
// input rather than of the extractor, and callers that sort failures
// into "bad input" versus "broken pipeline" (the HTTP service's
// 422-versus-500 split) should treat both types as bad input. The
// rendered text is exactly the historical fmt.Errorf form.
type StructError struct{ Msg string }

func (e *StructError) Error() string { return e.Msg }

// Diagnostic converts the error to its diagnostic form.
func (e *Error) Diagnostic() diag.Diagnostic {
	d := diag.New(diag.Error, guard.StageParse, e.Code, e.Msg)
	d.Span = e.Span
	return d
}

// Parse reads a complete CIF file from r.
func Parse(r io.Reader) (*File, error) {
	return ParseReaderOpts(r, ParseOptions{})
}

// ParseReaderOpts reads a complete CIF file from r under budgets.
func ParseReaderOpts(r io.Reader, opt ParseOptions) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseBytesOpts(data, opt)
}

// ParseString parses CIF from a string.
func ParseString(s string) (*File, error) { return ParseBytes([]byte(s)) }

// ParseBytes parses CIF from a byte slice.
func ParseBytes(data []byte) (*File, error) {
	return ParseBytesOpts(data, ParseOptions{})
}

// ParseBytesOpts parses CIF from a byte slice under budgets. A parser
// panic (an internal bug tripped by malformed input) surfaces as a
// *guard.PanicError instead of crashing the caller.
func ParseBytesOpts(data []byte, opt ParseOptions) (f *File, err error) {
	defer guard.Recover(guard.StageParse, &err)
	if err := guard.Inject(guard.StageParse); err != nil {
		return nil, err
	}
	p := &parser{
		src:     data,
		limits:  opt.Limits,
		lenient: opt.Lenient,
		file:    &File{},
	}
	if a := opt.Arena; a != nil {
		a.begin(p)
		defer a.end(p)
	} else {
		p.file.Symbols = map[int]*Symbol{}
	}
	p.file.Diagnostics.SetLimits(opt.Diag)
	if err := p.run(); err != nil {
		return nil, err
	}
	if opt.Lenient {
		lenientSemantics(p.file)
	} else if err := checkSemantics(p.file); err != nil {
		return nil, err
	}
	return p.file, nil
}

type parser struct {
	src       []byte
	pos       int
	line      int
	lineStart int // byte offset where the current line begins

	file *File

	cur      *Symbol // nil when at top level
	curMark  int     // itemArena start of the open symbol's items
	layer    tech.Layer
	hasLayer bool
	scaleA   int64 // DS scale numerator (1 at top level)
	scaleB   int64 // DS scale denominator
	ended    bool

	limits  guard.Limits
	lenient bool
	items   int64 // geometry items emitted, against Limits.MaxBoxes
	ovf     bool  // a scale or literal overflowed; fail at command end

	semiConsumed bool // the current command consumed its ';' terminator

	// Allocation arenas (see "allocation discipline" below): items of
	// the open symbol accumulate in itemArena and are sliced out at DF;
	// polygon/wire vertices accumulate in ptArena; Symbol structs come
	// from fixed-size blocks; words that must outlive the parse are
	// interned so repeated names cost one allocation total.
	itemArena []Item
	ptArena   []geom.Point
	symBlock  []Symbol
	interned  map[string]string
	arena     *Arena // reusable arena source (nil: allocate fresh)
}

// Allocation discipline. The parser is the first stage of the ingest
// pipeline and runs over multi-megabyte files, so the hot loop must
// not allocate per command:
//
//   - the lexer hands out sub-slices of src (tryWordBytes); the only
//     words converted to strings are names that outlive the parse,
//     and those are interned;
//   - a symbol's items are appended to a shared arena and sliced out
//     (three-index, so the view cannot be appended into) when DF
//     closes the symbol — one growth chain for the whole file instead
//     of one per symbol;
//   - polygon and wire vertices use the same trick on ptArena;
//   - Symbol structs are carved from 64-entry blocks to keep pointer
//     stability without a per-symbol allocation.
//
// BenchmarkParseBytes tracks allocs/op for regressions.

const symBlockSize = 64

func (p *parser) newSymbol(id int) *Symbol {
	if len(p.symBlock) == cap(p.symBlock) {
		if p.arena != nil {
			p.symBlock = p.arena.block()
		} else {
			p.symBlock = make([]Symbol, 0, symBlockSize)
		}
	}
	p.symBlock = append(p.symBlock, Symbol{ID: id})
	return &p.symBlock[len(p.symBlock)-1]
}

// intern returns w as a string, allocating only the first time a given
// word is seen.
func (p *parser) intern(w []byte) string {
	if s, ok := p.interned[string(w)]; ok {
		return s
	}
	if p.interned == nil {
		p.interned = make(map[string]string, 16)
	}
	s := string(w)
	p.interned[s] = s
	return s
}

// span is the current source position: where parsing stalled for
// errors, where the command sits for warnings.
func (p *parser) span() diag.Span {
	pos := p.pos
	if pos > len(p.src) {
		pos = len(p.src)
	}
	col := pos - p.lineStart + 1
	if col < 1 {
		col = 1
	}
	return diag.Span{Offset: pos, Line: p.line + 1, Col: col}
}

// errc builds a located *Error carrying a stable diagnostic code. The
// rendered text is the historical "cif: line N: message" form.
func (p *parser) errc(code, format string, args ...any) error {
	return &Error{Code: code, Span: p.span(), Msg: fmt.Sprintf(format, args...)}
}

// errWrap is errc for messages whose cause must stay unwrappable
// (errors.Is must still reach geom.ErrOverflow through it).
func (p *parser) errWrap(code string, cause error, format string, args ...any) error {
	return &Error{
		Code: code, Span: p.span(),
		Msg: fmt.Sprintf(format, args...) + ": " + cause.Error(),
		Err: cause,
	}
}

// warnc records a non-fatal issue as a located Warning with a stable
// code.
func (p *parser) warnc(code, format string, args ...any) {
	d := diag.New(diag.Warning, guard.StageParse, code, fmt.Sprintf(format, args...))
	d.Span = p.span()
	p.file.Diagnostics.Add(d)
}

func (p *parser) run() error {
	p.scaleA, p.scaleB = 1, 1
	for {
		p.skipBlanks()
		if p.pos >= len(p.src) {
			if p.cur != nil {
				err := p.errc("unterminated-symbol",
					"unterminated symbol definition DS %d", p.cur.ID)
				if !p.lenient {
					return err
				}
				// Salvage the open definition: close it as DF would so
				// its well-formed items survive.
				p.report(err)
				p.closeSymbol()
			}
			return nil
		}
		if p.ended {
			// Everything after E is ignored per the spec.
			return nil
		}
		c := p.src[p.pos]
		p.semiConsumed = false
		var err error
		switch {
		case c == ';':
			p.pos++ // empty command
		case c == '(':
			err = p.skipComment()
		case c >= '0' && c <= '9':
			err = p.userExtension()
		case c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z':
			err = p.command()
		default:
			err = p.errc("unexpected-char", "unexpected character %q", c)
		}
		if err == nil && p.ovf {
			err = p.errWrap("overflow", geom.ErrOverflow,
				"coordinate arithmetic under DS scale %d/%d", p.scaleA, p.scaleB)
		}
		if err != nil {
			if !p.lenient {
				return err
			}
			if aerr := p.recoverFrom(err); aerr != nil {
				return aerr
			}
		}
	}
}

// recoverFrom is the lenient-mode error path: the failure is recorded
// as a diagnostic and the input is resynchronised — at the next ';'
// for command-level damage, at the next DF command (or E) when a DS
// definition header itself was damaged, and in place when only the
// terminator was missing. Resource-budget violations are not input
// faults and abort the parse even here.
func (p *parser) recoverFrom(err error) error {
	p.ovf = false
	var le *guard.LimitError
	if errors.As(err, &le) {
		return err
	}
	var pe *Error
	if !errors.As(err, &pe) {
		e := &Error{Code: "parse", Span: p.span(), Msg: err.Error(), Err: err}
		pe = e
	}
	p.report(pe)
	switch pe.Code {
	case "nested-definition", "bad-definition", "bad-scale", "duplicate-symbol":
		// The definition header is unusable, so its body cannot be
		// attributed to a symbol: skip it wholesale.
		p.resyncDefinition()
	case "end-in-definition":
		// E closed the file with a definition still open; salvage it.
		p.closeSymbol()
	case "missing-semicolon":
		if !p.semiConsumed {
			// The command was complete apart from its terminator; the
			// next character starts a fresh command, so resume in
			// place instead of discarding it.
			return nil
		}
		p.resyncCommand()
	default:
		if p.semiConsumed {
			// The command's text was fully consumed (the fault is
			// semantic: negative box, degenerate polygon); the input
			// is already at a command boundary.
			return nil
		}
		p.resyncCommand()
	}
	return nil
}

// report records a recovered parse error as a diagnostic.
func (p *parser) report(err error) {
	var pe *Error
	if errors.As(err, &pe) {
		p.file.Diagnostics.Add(pe.Diagnostic())
		return
	}
	p.file.Diagnostics.Add(diag.New(diag.Error, guard.StageParse, "parse", err.Error()))
}

// resyncCommand advances past the next ';' — the command-level
// resynchronisation point.
func (p *parser) resyncCommand() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		p.pos++
		if c == ';' {
			return
		}
		if c == '\n' {
			p.line++
			p.lineStart = p.pos
		}
	}
}

// resyncDefinition discards input up to and including the next DF
// command (or up to E / end of input) — the definition-level
// resynchronisation point used when a DS header itself is damaged and
// the body that follows cannot be attributed to any symbol.
func (p *parser) resyncDefinition() {
	for {
		p.skipBlanks()
		if p.pos >= len(p.src) {
			return
		}
		c := p.src[p.pos]
		switch {
		case c == ';':
			p.pos++
		case c == '(':
			if p.skipComment() != nil {
				return // unterminated comment: nothing left to scan
			}
		case upper(c) == 'E':
			return // not consumed: the main loop handles E
		case upper(c) == 'D':
			save, saveLine, saveStart := p.pos, p.line, p.lineStart
			p.pos++
			p.skipBlanks()
			if p.pos < len(p.src) && upper(p.src[p.pos]) == 'F' {
				p.pos++
				p.resyncCommand() // consume through the DF's ';'
				return
			}
			p.pos, p.line, p.lineStart = save, saveLine, saveStart
			p.resyncCommand()
		default:
			p.resyncCommand()
		}
	}
}

// closeSymbol slices the open symbol's items out of the arena exactly
// as DF does and returns the parser to top level.
func (p *parser) closeSymbol() {
	if p.cur == nil {
		return
	}
	if n := len(p.itemArena); n > p.curMark {
		p.cur.Items = p.itemArena[p.curMark:n:n]
	}
	p.cur = nil
	p.scaleA, p.scaleB = 1, 1
}

func (p *parser) command() error {
	c := upper(p.src[p.pos])
	p.pos++
	switch c {
	case 'D':
		p.skipBlanks()
		if p.pos >= len(p.src) {
			return p.errc("truncated-command", "truncated D command")
		}
		switch upper(p.src[p.pos]) {
		case 'S':
			p.pos++
			return p.defineStart()
		case 'F':
			p.pos++
			return p.defineFinish()
		case 'D':
			p.pos++
			_, _ = p.number() // symbol number
			p.warnc("ignored-command", "DD (delete definition) ignored")
			return p.endCommand()
		}
		return p.errc("unknown-command", "unknown D command")
	case 'C':
		return p.call()
	case 'L':
		return p.layerCmd()
	case 'B':
		return p.box()
	case 'P':
		return p.polygon()
	case 'W':
		return p.wire()
	case 'R':
		return p.roundFlash()
	case 'E':
		p.ended = true
		if p.cur != nil {
			return p.errc("end-in-definition", "E inside symbol definition")
		}
		return nil
	}
	return p.errc("unknown-command", "unknown command %q", c)
}

func (p *parser) defineStart() error {
	if p.cur != nil {
		return p.errc("nested-definition", "nested DS (symbol %d still open)", p.cur.ID)
	}
	id, err := p.number()
	if err != nil {
		return p.errc("bad-definition", "DS needs a symbol number: %v", err)
	}
	a, b := int64(1), int64(1)
	if n, ok := p.tryNumber(); ok {
		a = n
		m, ok2 := p.tryNumber()
		if !ok2 {
			return p.errc("bad-scale", "DS scale needs both a and b")
		}
		b = m
		if a <= 0 || b <= 0 {
			return p.errc("bad-scale", "DS scale must be positive, got %d/%d", a, b)
		}
	}
	if _, dup := p.file.Symbols[int(id)]; dup {
		return p.errc("duplicate-symbol", "symbol %d defined twice", id)
	}
	p.cur = p.newSymbol(int(id))
	p.curMark = len(p.itemArena)
	p.file.Symbols[int(id)] = p.cur
	p.scaleA, p.scaleB = a, b
	return p.endCommand()
}

func (p *parser) defineFinish() error {
	if p.cur == nil {
		return p.errc("misplaced-command", "DF without DS")
	}
	// Slice the symbol's items out of the arena. The three-index form
	// caps the view so appending to sym.Items can never scribble over a
	// later symbol's items.
	p.closeSymbol()
	return p.endCommand()
}

func (p *parser) call() error {
	id, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "C needs a symbol number: %v", err)
	}
	tr := geom.Identity
	for {
		p.skipBlanks()
		if p.pos >= len(p.src) {
			return p.errc("unterminated-call", "unterminated call")
		}
		switch upper(p.src[p.pos]) {
		case ';':
			p.pos++
			p.semiConsumed = true
			return p.emit(Item{Kind: ItemCall, SymbolID: int(id), Trans: tr})
		case 'T':
			p.pos++
			x, err := p.number()
			if err != nil {
				return p.errc("bad-operand", "T needs x: %v", err)
			}
			y, err := p.number()
			if err != nil {
				return p.errc("bad-operand", "T needs y: %v", err)
			}
			if tr, err = tr.ThenChecked(geom.Translate(p.scale(x), p.scale(y))); err != nil {
				return p.errWrap("overflow", err, "call translation")
			}
		case 'M':
			p.pos++
			p.skipBlanks()
			if p.pos >= len(p.src) {
				return p.errc("bad-transform", "M needs an axis")
			}
			switch upper(p.src[p.pos]) {
			case 'X':
				p.pos++
				tr = tr.Then(geom.MirrorX())
			case 'Y':
				p.pos++
				tr = tr.Then(geom.MirrorY())
			default:
				return p.errc("bad-transform", "M needs X or Y")
			}
		case 'R':
			p.pos++
			a, err := p.number()
			if err != nil {
				return p.errc("bad-operand", "R needs a: %v", err)
			}
			b, err := p.number()
			if err != nil {
				return p.errc("bad-operand", "R needs b: %v", err)
			}
			rot, snapped := geom.ApproxRotation(a, b)
			if snapped {
				p.warnc("snapped-rotation", "rotation (%d,%d) snapped to nearest axis", a, b)
			}
			tr = tr.Then(rot)
		default:
			return p.errc("bad-transform", "unexpected %q in call transformation list", p.src[p.pos])
		}
	}
}

func (p *parser) layerCmd() error {
	name, err := p.wordBytes()
	if err != nil {
		return p.errc("bad-operand", "L needs a layer name: %v", err)
	}
	l, ok := tech.LayerByCIFNameBytes(name)
	if !ok {
		p.warnc("unknown-layer", "unknown layer %q; geometry on it will be ignored", name)
		p.hasLayer = false
		return p.endCommand()
	}
	p.layer = l
	p.hasLayer = true
	return p.endCommand()
}

func (p *parser) box() error {
	length, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "B needs length: %v", err)
	}
	width, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "B needs width: %v", err)
	}
	cx, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "B needs cx: %v", err)
	}
	cy, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "B needs cy: %v", err)
	}
	var dx, dy int64
	hasDir := false
	if n, ok := p.tryNumber(); ok {
		dx = n
		dy, err = p.number()
		if err != nil {
			return p.errc("bad-operand", "B direction needs dy: %v", err)
		}
		hasDir = true
	}
	if err := p.endCommand(); err != nil {
		return err
	}
	if length < 0 || width < 0 {
		return p.errc("bad-geometry", "negative box dimensions %d x %d", length, width)
	}
	if !p.requireLayer("box") {
		return nil
	}
	sl, sw, scx, scy := p.scale(length), p.scale(width), p.scale(cx), p.scale(cy)
	// The corner arithmetic is centre ± extent; reject it up front when
	// it would wrap rather than emit a folded rectangle.
	if _, ok1 := geom.AddOK(scx, sl); !ok1 {
		p.ovf = true
	} else if _, ok2 := geom.AddOK(scx, -sl); !ok2 {
		p.ovf = true
	} else if _, ok3 := geom.AddOK(scy, sw); !ok3 {
		p.ovf = true
	} else if _, ok4 := geom.AddOK(scy, -sw); !ok4 {
		p.ovf = true
	}
	if p.ovf {
		return p.errWrap("overflow", geom.ErrOverflow, "box corners")
	}
	r := geom.RectCWH(sl, sw, geom.Pt(scx, scy))
	if hasDir && !(dy == 0 && dx > 0) {
		// Rotated box: rotate the corners about the centre.
		rot, snapped := geom.ApproxRotation(dx, dy)
		if snapped {
			p.warnc("snapped-rotation", "box direction (%d,%d) snapped to nearest axis", dx, dy)
		}
		c := r.Center()
		tr := geom.Translate(-c.X, -c.Y).Then(rot).Then(geom.Translate(c.X, c.Y))
		r = tr.ApplyRect(r)
	}
	return p.emit(Item{Kind: ItemBox, Layer: p.layer, Box: r})
}

func (p *parser) polygon() error {
	pts, err := p.points()
	if err != nil {
		return err
	}
	if err := p.endCommand(); err != nil {
		return err
	}
	if len(pts) < 3 {
		return p.errc("bad-geometry", "polygon needs at least 3 points, got %d", len(pts))
	}
	if !p.requireLayer("polygon") {
		return nil
	}
	return p.emit(Item{Kind: ItemPolygon, Layer: p.layer, Poly: geom.Polygon(pts)})
}

func (p *parser) wire() error {
	width, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "W needs width: %v", err)
	}
	pts, err := p.points()
	if err != nil {
		return err
	}
	if err := p.endCommand(); err != nil {
		return err
	}
	if len(pts) == 0 {
		return p.errc("bad-geometry", "wire needs at least 1 point")
	}
	if !p.requireLayer("wire") {
		return nil
	}
	return p.emit(Item{Kind: ItemWire, Layer: p.layer,
		Wire: geom.Wire{Width: p.scale(width), Path: pts}})
}

func (p *parser) roundFlash() error {
	diam, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "R needs diameter: %v", err)
	}
	cx, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "R needs cx: %v", err)
	}
	cy, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "R needs cy: %v", err)
	}
	if err := p.endCommand(); err != nil {
		return err
	}
	if !p.requireLayer("roundflash") {
		return nil
	}
	// Approximate the flash by its inscribed octagon (DESIGN.md §6).
	oct := geom.Octagon(p.scale(diam), geom.Pt(p.scale(cx), p.scale(cy)))
	return p.emit(Item{Kind: ItemPolygon, Layer: p.layer, Poly: oct})
}

func (p *parser) userExtension() error {
	// The digit has not been consumed yet.
	digit := p.src[p.pos]
	p.pos++
	switch digit {
	case '9':
		if p.pos < len(p.src) && p.src[p.pos] == '4' {
			p.pos++
			return p.label()
		}
		// "9 name;" — symbol name.
		name, err := p.wordBytes()
		if err != nil {
			return p.errc("bad-operand", "9 needs a name: %v", err)
		}
		if p.cur != nil {
			p.cur.Name = p.intern(name)
		} else {
			p.warnc("ignored-command", "symbol name %q outside symbol definition ignored", name)
		}
		return p.endCommand()
	default:
		p.warnc("ignored-command", "user extension %q skipped", digit)
		return p.skipToSemicolon()
	}
}

// label parses "94 name x y [layer];" which attaches a user name to
// the electrical node at (x, y) — Sproull's "Names in CIF" convention
// that ACE uses for net naming.
func (p *parser) label() error {
	name, err := p.wordBytes()
	if err != nil {
		return p.errc("bad-operand", "94 needs a name: %v", err)
	}
	x, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "94 needs x: %v", err)
	}
	y, err := p.number()
	if err != nil {
		return p.errc("bad-operand", "94 needs y: %v", err)
	}
	it := Item{Kind: ItemLabel, Name: p.intern(name), At: geom.Pt(p.scale(x), p.scale(y))}
	if w, ok := p.tryWordBytes(); ok {
		if l, lok := tech.LayerByCIFNameBytes(w); lok {
			it.Layer = l
			it.HasLayer = true
		} else {
			p.warnc("unknown-layer", "label %q names unknown layer %q", it.Name, w)
		}
	}
	if err := p.endCommand(); err != nil {
		return err
	}
	return p.emit(it)
}

func (p *parser) emit(it Item) error {
	if p.ovf {
		// The command's scale arithmetic overflowed: its coordinates
		// are garbage, so nothing is emitted. run() raises (strict) or
		// records (lenient) the located overflow error.
		return nil
	}
	p.items++
	if err := p.limits.CheckBoxes(guard.StageParse, p.items); err != nil {
		return fmt.Errorf("cif: line %d: %w", p.line+1, err)
	}
	if p.cur != nil {
		p.itemArena = append(p.itemArena, it)
	} else {
		p.file.Top = append(p.file.Top, it)
	}
	return nil
}

func (p *parser) requireLayer(what string) bool {
	if !p.hasLayer {
		p.warnc("no-layer", "%s before any L command ignored", what)
		return false
	}
	return true
}

func (p *parser) scale(v int64) int64 {
	if p.scaleA == 1 && p.scaleB == 1 {
		return v
	}
	prod, ok := geom.MulOK(v, p.scaleA)
	if !ok {
		// Absurd DS scales must become parse errors, not wrapped
		// coordinates; run() turns the flag into a located error.
		p.ovf = true
		return 0
	}
	return prod / p.scaleB
}

// ---- low-level scanning ----

func upper(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipBlanks advances over separator characters (whitespace, commas —
// anything that cannot start a command or operand).
func (p *parser) skipBlanks() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '\n' {
			p.line++
			p.pos++
			p.lineStart = p.pos
			continue
		}
		if c == ' ' || c == '\t' || c == '\r' || c == ',' {
			p.pos++
			continue
		}
		return
	}
}

func (p *parser) skipComment() error {
	depth := 0
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				p.pos++
				return nil
			}
		case '\n':
			p.line++
			p.lineStart = p.pos + 1
		}
		p.pos++
	}
	return p.errc("unterminated-comment", "unterminated comment")
}

func (p *parser) skipToSemicolon() error {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ';' {
			p.pos++
			return nil
		}
		if c == '\n' {
			p.line++
			p.lineStart = p.pos + 1
		}
		p.pos++
	}
	return p.errc("unterminated-command", "unterminated command")
}

// endCommand consumes separators up to and including the terminating
// semicolon.
func (p *parser) endCommand() error {
	p.skipBlanks()
	if p.pos >= len(p.src) || p.src[p.pos] != ';' {
		if p.pos < len(p.src) {
			return p.errc("missing-semicolon", "expected ';', found %q", p.src[p.pos])
		}
		return p.errc("missing-semicolon", "expected ';', found end of input")
	}
	p.pos++
	p.semiConsumed = true
	return nil
}

func (p *parser) number() (int64, error) {
	n, ok := p.tryNumber()
	if !ok {
		if p.pos < len(p.src) {
			return 0, fmt.Errorf("expected number, found %q", p.src[p.pos])
		}
		return 0, fmt.Errorf("expected number, found end of input")
	}
	return n, nil
}

func (p *parser) tryNumber() (int64, bool) {
	p.skipBlanks()
	i := p.pos
	neg := false
	if i < len(p.src) && p.src[i] == '-' {
		neg = true
		i++
	}
	if i >= len(p.src) || !isDigit(p.src[i]) {
		return 0, false
	}
	var v int64
	for i < len(p.src) && isDigit(p.src[i]) {
		if v > (math.MaxInt64-9)/10 {
			// A literal too large for int64: flag it rather than
			// silently wrapping; run() raises a located error.
			p.ovf = true
			v = math.MaxInt64 / 2
		} else {
			v = v*10 + int64(p.src[i]-'0')
		}
		i++
	}
	p.pos = i
	if neg {
		v = -v
	}
	return v, true
}

func (p *parser) wordBytes() ([]byte, error) {
	w, ok := p.tryWordBytes()
	if !ok {
		return nil, fmt.Errorf("expected word")
	}
	return w, nil
}

// points reads pairs of numbers until the terminating semicolon is in
// sight. The vertices are carved out of the shared point arena; the
// returned slice is capacity-capped so the caller owns it.
func (p *parser) points() ([]geom.Point, error) {
	mark := len(p.ptArena)
	for {
		x, ok := p.tryNumber()
		if !ok {
			n := len(p.ptArena)
			if n == mark {
				return nil, nil
			}
			return p.ptArena[mark:n:n], nil
		}
		y, err := p.number()
		if err != nil {
			p.ptArena = p.ptArena[:mark]
			return nil, p.errc("bad-operand", "point needs both coordinates: %v", err)
		}
		p.ptArena = append(p.ptArena, geom.Pt(p.scale(x), p.scale(y)))
	}
}

// tryWordBytes scans a word and returns it as a sub-slice of the
// source — no allocation. Callers that retain the word must intern it.
func (p *parser) tryWordBytes() ([]byte, bool) {
	p.skipBlanks()
	i := p.pos
	for i < len(p.src) {
		c := p.src[i]
		if c == ';' || c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',' || c == '(' {
			break
		}
		i++
	}
	if i == p.pos {
		return nil, false
	}
	w := p.src[p.pos:i]
	p.pos = i
	return w, true
}

// checkSemantics validates calls and detects definition cycles —
// strict mode's whole-file validation, unchanged: its messages are the
// historical ones, byte for byte.
func checkSemantics(f *File) error {
	var undefined []int
	check := func(items []Item) {
		for _, it := range items {
			if it.Kind == ItemCall {
				if _, ok := f.Symbols[it.SymbolID]; !ok {
					undefined = append(undefined, it.SymbolID)
				}
			}
		}
	}
	check(f.Top)
	for _, s := range f.Symbols {
		check(s.Items)
	}
	if len(undefined) > 0 {
		return &StructError{Msg: fmt.Sprintf("cif: call to undefined symbol(s) %v", undefined)}
	}

	// Cycle detection over the call graph.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[int]int{}
	var cycle []int
	var visit func(id int) bool
	visit = func(id int) bool {
		switch color[id] {
		case grey:
			cycle = append(cycle, id)
			return false
		case black:
			return true
		}
		color[id] = grey
		for _, it := range f.Symbols[id].Items {
			if it.Kind == ItemCall && !visit(it.SymbolID) {
				return false
			}
		}
		color[id] = black
		return true
	}
	for id := range f.Symbols {
		if !visit(id) {
			return &StructError{Msg: fmt.Sprintf("cif: recursive symbol definition involving DS %d", cycle[0])}
		}
	}
	return nil
}

// lenientSemantics is checkSemantics' fail-soft counterpart: calls to
// undefined symbols become Error diagnostics (the front ends drop such
// calls, so the file stays extractable), and recursive definitions are
// broken by dropping the back-edge call, again with a diagnostic.
// Traversal is in sorted-id order so the diagnostics — and the choice
// of dropped call in a multi-symbol cycle — are deterministic.
func lenientSemantics(f *File) {
	ids := make([]int, 0, len(f.Symbols))
	for id := range f.Symbols {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	undef := map[int]bool{}
	noteUndef := func(items []Item) {
		for _, it := range items {
			if it.Kind == ItemCall {
				if _, ok := f.Symbols[it.SymbolID]; !ok {
					undef[it.SymbolID] = true
				}
			}
		}
	}
	noteUndef(f.Top)
	for _, id := range ids {
		noteUndef(f.Symbols[id].Items)
	}
	undefIDs := make([]int, 0, len(undef))
	for id := range undef {
		undefIDs = append(undefIDs, id)
	}
	sort.Ints(undefIDs)
	for _, id := range undefIDs {
		f.Diagnostics.Add(diag.New(diag.Error, guard.StageParse, "undefined-symbol",
			fmt.Sprintf("call to undefined symbol %d dropped", id)))
	}
	if len(undef) > 0 {
		dropUndefined := func(items []Item) []Item {
			var kept []Item
			dropped := false
			for i, it := range items {
				if it.Kind == ItemCall && undef[it.SymbolID] {
					if !dropped {
						kept = append(kept, items[:i]...)
						dropped = true
					}
					continue
				}
				if dropped {
					kept = append(kept, it)
				}
			}
			if dropped {
				return kept
			}
			return items
		}
		f.Top = dropUndefined(f.Top)
		for _, id := range ids {
			f.Symbols[id].Items = dropUndefined(f.Symbols[id].Items)
		}
	}

	// Cycle breaking: depth-first over the call graph; a call whose
	// target is on the current DFS path is a back edge and is removed
	// from its containing symbol.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[int]int{}
	var visit func(id int)
	visit = func(id int) {
		color[id] = grey
		sym := f.Symbols[id]
		var kept []Item
		dropped := false
		for i, it := range sym.Items {
			backEdge := false
			if it.Kind == ItemCall {
				if tgt, ok := f.Symbols[it.SymbolID]; ok {
					switch color[tgt.ID] {
					case grey:
						f.Diagnostics.Add(diag.New(diag.Error, guard.StageParse, "recursive-symbol",
							fmt.Sprintf("recursive symbol definition involving DS %d; call from DS %d dropped",
								it.SymbolID, id)))
						backEdge = true
					case white:
						visit(it.SymbolID)
					}
				}
			}
			if backEdge {
				if !dropped {
					// Copy-on-first-drop: acyclic files never pay for
					// the filtered slice.
					kept = append(kept, sym.Items[:i]...)
					dropped = true
				}
				continue
			}
			if dropped {
				kept = append(kept, it)
			}
		}
		if dropped {
			sym.Items = kept
		}
		color[id] = black
	}
	for _, id := range ids {
		if color[id] == white {
			visit(id)
		}
	}
}

// TopSymbol returns the effective top of the design. If the file has
// top-level items they are the top; otherwise, the unique symbol that
// is never called is the top. When several symbols are uncalled the
// highest-numbered one wins (matching common practice), with a warning
// via the second return.
func (f *File) TopSymbol() ([]Item, string) {
	if len(f.Top) > 0 {
		return f.Top, ""
	}
	called := map[int]bool{}
	for _, s := range f.Symbols {
		for _, it := range s.Items {
			if it.Kind == ItemCall {
				called[it.SymbolID] = true
			}
		}
	}
	var roots []int
	for id := range f.Symbols {
		if !called[id] {
			roots = append(roots, id)
		}
	}
	if len(roots) == 0 {
		return nil, "no top-level geometry and no uncalled symbol"
	}
	best := roots[0]
	for _, id := range roots[1:] {
		if id > best {
			best = id
		}
	}
	warn := ""
	if len(roots) > 1 {
		warn = fmt.Sprintf("multiple uncalled symbols %v; using DS %d", roots, best)
	}
	return []Item{{Kind: ItemCall, SymbolID: best, Trans: geom.Identity}}, warn
}
