package hext

import (
	"time"

	"ace/internal/guard"
)

// dagNode is one unit of back-end work in the planned merge DAG: a
// leaf window to sweep or a compose of two finished children. The
// front end (env.plan) builds the DAG; env.execute runs it in creation
// order. Session-memo hits become result-only nodes (res pre-set, not
// scheduled), which is what turns the window tree into a DAG.
type dagNode struct {
	id   int
	kind nodeKind

	win window // nodeLeaf: contents to sweep (released after the run)

	// nodeComp: the guillotine cut that produced the children.
	axis byte
	at   int64
	w, h int64
	kids [2]*dagNode

	res      *winResult
	warnings []string
}

type nodeKind int8

const (
	nodeDone nodeKind = iota // res carried over from the session memo
	nodeLeaf
	nodeComp
)

func (e *env) run(n *dagNode) {
	switch n.kind {
	case nodeLeaf:
		t0 := time.Now()
		n.res, n.warnings = e.extractLeaf(n)
		e.timing.Flat += time.Since(t0)
		n.win.items = nil // the sweep input is dead weight once extracted
	case nodeComp:
		t0 := time.Now()
		n.res = e.compose(n)
		e.timing.Compose += time.Since(t0)
	}
}

// runGuarded executes one node under panic isolation, with the
// cooperative-cancellation and fault-injection checks for its stage.
func (e *env) runGuarded(n *dagNode) error {
	stage := guard.StageHextLeaf
	if n.kind == nodeComp {
		stage = guard.StageHextCompose
	}
	return guard.Run(stage, func() error {
		if err := guard.Ctx(e.ctx, stage); err != nil {
			return err
		}
		if err := guard.Inject(stage); err != nil {
			return err
		}
		e.run(n)
		return nil
	})
}

// execute runs every planned node on the caller's goroutine, walking
// the node list in creation order. That order is the planning
// recursion's post-order, so every compose finds both children
// finished.
func (e *env) execute() error {
	for _, n := range e.nodeList {
		if err := e.runGuarded(n); err != nil {
			return err
		}
	}
	return nil
}
