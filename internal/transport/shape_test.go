package transport

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/wire"
)

// shapeNodes are the nodes of the blocks network the shape forgeries
// aim at.
type shapeNodes struct {
	join2   *rete.Node // a join whose left input is two wmes wide
	prod3   *rete.Node // pick-up's terminal: three positive condition elements
	prodNeg *rete.Node // all-done's terminal: (hand) -(goal) -(goal)
}

func shapeNodesOf(t *testing.T, network *rete.Network) shapeNodes {
	t.Helper()
	sn := shapeNodes{prod3: network.Prods["pick-up"].Node, prodNeg: network.Prods["all-done"].Node}
	for _, n := range network.Nodes {
		if n.Kind == rete.KindJoin && n.LeftLen == 2 {
			sn.join2 = n
			break
		}
	}
	if sn.join2 == nil || len(sn.prod3.Info.TokenPos) != 3 || sn.prodNeg.Info.TokenPos[1] >= 0 {
		t.Fatal("the blocks network has changed shape under the forgeries")
	}
	return sn
}

// forgeAct writes one activation field by field, as enc.activation lays
// it out: node, side, tag, whether a token follows, the token's wmes,
// then the wme position. Every wme position is written by pos: a
// definition toward a worker, a reference toward the control, which
// takes no definition. token < 0 writes no token.
func forgeAct(e *enc, n *rete.Node, side rete.Side, token int, wme bool, pos func(*enc)) {
	e.Int(n.ID)
	e.Byte(byte(side))
	e.Byte(byte(rete.Add))
	e.Bool(token >= 0)
	if token >= 0 {
		e.Count(token)
		for i := 0; i < token; i++ {
			pos(e)
		}
	}
	if wme {
		pos(e)
	} else {
		e.Byte(wmeNil)
	}
}

// actFaults are the ways an activation can lie about its shape: each
// encodes one activation that the codec used to decode and a step then
// dereferenced or indexed — a nil token at Token.H, an absent wme at
// its handle, a one-wme token at Tests[i].LeftPos or Info.TokenPos. The
// two sound rows are the same frames told truthfully.
var actFaults = []struct {
	name string
	act  func(e *enc, sn shapeNodes, pos func(*enc))
	why  string // "" for a sound row
}{
	{"sound-left", func(e *enc, sn shapeNodes, pos func(*enc)) { forgeAct(e, sn.join2, rete.Left, 2, false, pos) }, ""},
	{"sound-right", func(e *enc, sn shapeNodes, pos func(*enc)) { forgeAct(e, sn.join2, rete.Right, -1, true, pos) }, ""},
	{"left-without-token", func(e *enc, sn shapeNodes, pos func(*enc)) { forgeAct(e, sn.join2, rete.Left, -1, false, pos) }, "left activation of join node"},
	{"left-with-wme", func(e *enc, sn shapeNodes, pos func(*enc)) { forgeAct(e, sn.join2, rete.Left, 2, true, pos) }, "left activation of join node"},
	{"left-narrow-token", func(e *enc, sn shapeNodes, pos func(*enc)) { forgeAct(e, sn.join2, rete.Left, 1, false, pos) }, "needs a 2-wme token"},
	{"left-wide-token", func(e *enc, sn shapeNodes, pos func(*enc)) { forgeAct(e, sn.join2, rete.Left, 3, false, pos) }, "needs a 2-wme token"},
	{"left-narrow-token-at-terminal", func(e *enc, sn shapeNodes, pos func(*enc)) { forgeAct(e, sn.prod3, rete.Left, 1, false, pos) }, "needs a 3-wme token"},
	{"right-without-wme", func(e *enc, sn shapeNodes, pos func(*enc)) { forgeAct(e, sn.join2, rete.Right, -1, false, pos) }, "right activation of join node"},
	{"right-with-token", func(e *enc, sn shapeNodes, pos func(*enc)) { forgeAct(e, sn.join2, rete.Right, 2, true, pos) }, "right activation of join node"},
	{"right-at-terminal", func(e *enc, sn shapeNodes, pos func(*enc)) { forgeAct(e, sn.prod3, rete.Right, -1, true, pos) }, "right activation of production node"},
}

// forgeDelta writes one delta's wme positions: pos where filled says
// so, nothing elsewhere.
func forgeDelta(e *enc, pos func(*enc), filled ...bool) {
	e.Count(len(filled))
	for _, f := range filled {
		if f {
			pos(e)
		} else {
			e.Byte(wmeNil)
		}
	}
}

// deltaFaults are the ways a conflict-set delta can lie about its
// production's shape. The control's engine indexes a delta's WMEs by
// condition element (Session.act: in.WMEs[idx-1]) and reads a variable
// through the wme at its defining one, so a short array is an index out
// of range there and an empty positive position a nil dereference.
var deltaFaults = []struct {
	name   string
	node   func(sn shapeNodes) *rete.Node
	filled []bool
	why    string // "" for a sound row
}{
	{"sound", func(sn shapeNodes) *rete.Node { return sn.prod3 }, []bool{true, true, true}, ""},
	{"sound-negated", func(sn shapeNodes) *rete.Node { return sn.prodNeg }, []bool{true, false, false}, ""},
	{"short-delta", func(sn shapeNodes) *rete.Node { return sn.prod3 }, []bool{true}, "carries 1 wme positions"},
	{"long-delta", func(sn shapeNodes) *rete.Node { return sn.prod3 }, []bool{true, true, true, true}, "carries 4 wme positions"},
	{"empty-delta", func(sn shapeNodes) *rete.Node { return sn.prod3 }, nil, "carries 0 wme positions"},
	{"empty-positive-position", func(sn shapeNodes) *rete.Node { return sn.prod3 }, []bool{true, false, true}, "position 1 is empty"},
	{"filled-negated-position", func(sn shapeNodes) *rete.Node { return sn.prodNeg }, []bool{true, true, false}, "position 1 is empty, or filled"},
}

// TestShapeFaultsAtTheCodec decodes every actFaults and deltaFaults row
// where the reason is still attached: each forgery fails with
// ErrBadPayload for the reason its row gives, each sound row decodes,
// and none panics. The worker's and the control's tests put the same
// rows on both surfaces.
func TestShapeFaultsAtTheCodec(t *testing.T) {
	network, _ := compileWorkload(t, "blocks")
	sn, w := shapeNodesOf(t, network), faultWME()
	ref := func(e *enc) { exactRef(e, faultHandle, w) }
	check := func(t *testing.T, err error, why string) {
		t.Helper()
		switch {
		case why == "" && err != nil:
			t.Fatalf("sound row refused: %v", err)
		case why != "" && (!errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), why)):
			t.Fatalf("decoder said %v, want ErrBadPayload: ... %s", err, why)
		}
	}
	for _, row := range actFaults {
		t.Run("act-"+row.name, func(t *testing.T) {
			e := enc{layouts: network.Layouts()}
			row.act(&e, sn, ref)
			d := dec{Dec: wire.Dec{B: e.Buf}, tab: fixtureTable(), layouts: network.Layouts()}
			d.activation(network)
			check(t, d.Done(), row.why)
		})
	}
	for _, row := range deltaFaults {
		t.Run("delta-"+row.name, func(t *testing.T) {
			e := enc{layouts: network.Layouts()}
			e.Byte(byte(rete.Add))
			e.Int(row.node(sn).ID)
			forgeDelta(&e, ref, row.filled...)
			d := dec{Dec: wire.Dec{B: e.Buf}, tab: fixtureTable(), layouts: network.Layouts()}
			d.instChange(network, &turnFrame{wmes: make([]*ops5.WME, 8)})
			check(t, d.Done(), row.why)
		})
	}
}

// TestWorkerRejectsBadShapes: an ftActs frame carrying each actFaults
// forgery ends ServeConn with ErrBadPayload — the worker neither panics
// in its step nor hangs, and leaves no goroutine — and the sound rows
// are performed and answered.
func TestWorkerRejectsBadShapes(t *testing.T) {
	network, _ := compileWorkload(t, "blocks")
	sn, w := shapeNodesOf(t, network), faultWME()
	def := func(e *enc) { e.def(faultHandle, w) }
	shutdown := wireFrame{ftShutdown, func(*enc) {}}
	for _, row := range actFaults {
		t.Run(row.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			defer goroutinesSettle(t, before)
			acts := wireFrame{ftActs, func(e *enc) {
				e.I32(1) // batch
				e.I32(faultWorkers)
				e.Count(1)
				e.I32(3) // bucket
				e.I32(1) // depth
				row.act(e, sn, def)
			}}
			err := serveFault(t, network, acts, shutdown)
			switch {
			case row.why == "" && err != nil:
				t.Fatalf("sound activation refused: %v", err)
			case row.why != "" && !errors.Is(err, ErrBadPayload):
				t.Fatalf("worker returned %v, want ErrBadPayload", err)
			}
		})
	}
}

// TestControlRejectsBadShapes: worker 0 answers the first cycle with a
// turn frame whose one delta lies about its production's shape
// (deltaFaults), or with a relay whose activation lies about its node's
// (actFaults; the control decodes what it forwards). Cycle returns
// ErrBadPayload. Before the check, the short delta reached the engine
// and panicked Session.act with an index out of range. The sound rows
// come back as the one delta they are.
func TestControlRejectsBadShapes(t *testing.T) {
	network, changes := compileWorkload(t, "blocks")
	sn := shapeNodesOf(t, network)
	// The control registered the cycle's first change at handle 1.
	ref := func(e *enc) { exactRef(e, 1, changes[0].WME) }
	for _, row := range deltaFaults {
		t.Run("turn-"+row.name, func(t *testing.T) {
			frame := turnOf(row.node(sn), len(row.filled), func(e *enc) { forgeDelta(e, ref, row.filled...) })
			insts, err := cycleAgainstForger(t, network, changes, frame)
			switch {
			case row.why == "" && (err != nil || len(insts) != 1 || len(insts[0].WMEs()) != len(row.filled)):
				t.Fatalf("sound turn: insts=%v err=%v, want its one delta", insts, err)
			case row.why != "" && !errors.Is(err, ErrBadPayload):
				t.Fatalf("Cycle returned %v, want ErrBadPayload", err)
			}
		})
	}
	for _, row := range actFaults {
		if row.why == "" {
			continue // a sound relay needs a live worker 1 to perform it
		}
		t.Run("relay-"+row.name, func(t *testing.T) {
			frame := wireFrame{ftRelay, func(e *enc) {
				e.I32(1) // destination: worker 0 is the forger
				e.Count(1)
				e.I32(3) // bucket
				e.I32(2) // depth
				row.act(e, sn, ref)
			}}
			if _, err := cycleAgainstForger(t, network, changes, frame); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("Cycle returned %v, want ErrBadPayload", err)
			}
		})
	}
}
