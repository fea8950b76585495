package transport

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/wire"
	"mpcrete/internal/workloads"
)

// handedDeltas is the match phase of a control whose worker sent one
// turn frame: it answers the first Apply with the frame's deltas, as
// the cycle driver hands them to the engine (netting aside).
type handedDeltas struct{ deltas []rete.InstChange }

func (h *handedDeltas) Apply([]rete.Change) []rete.InstChange {
	d := h.deltas
	h.deltas = nil
	return d
}

// prodAct is the production-node activation a worker ships for a delta
// of node over a token of handles.
func prodAct(node *rete.Node, tag rete.Tag, h ...int32) rete.Activation {
	return rete.Activation{Node: node, Side: rete.Left, Tag: tag, Token: rete.Token{H: h}}
}

// actsOf turns decoded deltas back into the production-node activations
// a worker would have shipped for them: each wme at its condition
// element's token position, by its handle in tab.
func actsOf(tab *rete.Table, insts []rete.InstChange) []rete.Activation {
	handle := map[*ops5.WME]int32{}
	for h := int32(1); tab.WME(h) != nil; h++ {
		handle[tab.WME(h)] = h
	}
	acts := make([]rete.Activation, len(insts))
	for i, ic := range insts {
		tok := make([]int32, ic.Info.Node.TokenLen)
		for ce, pos := range ic.Info.TokenPos {
			if pos >= 0 {
				tok[pos] = handle[ic.WMEs[ce]]
			}
		}
		acts[i] = prodAct(ic.Info.Node, ic.Tag, tok...)
	}
	return acts
}

// turnSeeds are ftTurn payloads over the blocks network, as a worker
// holding faultWME at faultHandle sends them: an honest turn (two adds,
// one of them over a negated production, and a delete, every position
// a reference), an empty one, and the forgeries of deltaFaults, the
// short delta that used to reach Session.act first.
func turnSeeds(network *rete.Network) [][]byte {
	pickUp, allDone := network.Prods["pick-up"].Node, network.Prods["all-done"].Node
	h := faultHandle
	honest := &parallel.Turn{Handled: 7, MaxDepth: 3, Acts: []rete.Activation{
		prodAct(pickUp, rete.Add, h, h, h),
		prodAct(allDone, rete.Add, h),
		prodAct(pickUp, rete.Delete, h, h, h),
	}, Loads: []parallel.BucketLoad{{Bucket: 3, N: 7}}}
	seeds := [][]byte{
		payloadOf(&enc{tab: fixtureTable(), refsOnly: true, layouts: network.Layouts()}, func(e *enc) {
			e.turn(2, []parallel.RecvStamp{{Batch: 4, Src: 2, Count: 2}}, 1, honest)
		}),
		payloadOf(&enc{layouts: network.Layouts()}, func(e *enc) { e.turn(1, nil, 0, &parallel.Turn{}) }),
	}
	sn := shapeNodes{prod3: pickUp, prodNeg: allDone}
	ref := func(e *enc) { exactRef(e, faultHandle, faultWME()) }
	for _, row := range deltaFaults {
		if row.why == "" {
			continue
		}
		frame := turnOf(row.node(sn), len(row.filled), func(e *enc) { forgeDelta(e, ref, row.filled...) })
		seeds = append(seeds, payloadOf(&enc{layouts: network.Layouts()}, frame.fill))
	}
	return seeds
}

// TestTurnFrameSeeds keeps FuzzTurnFrame's corpus honest, as
// TestSlotFormSeeds does its neighbour's: the honest seeds decode in
// full (a seed a format change left behind would fuzz nothing), the
// forgeries do not, and each is committed under testdata as generated
// (a stale file fails here; regenerate it from turnSeeds).
func TestTurnFrameSeeds(t *testing.T) {
	network, _ := mustCompile("blocks")
	for i, data := range turnSeeds(network) {
		d := dec{Dec: wire.Dec{B: data}, nbuckets: rete.DefaultNBuckets, workers: 2, tab: fixtureTable(), layouts: network.Layouts()}
		var tf turnFrame
		err := d.turn(network, &tf)
		switch honest := i < 2; {
		case honest && err != nil:
			t.Errorf("seed %d does not decode: %v", i, err)
		case honest && i == 0 && (len(tf.turn.Insts) != 3 || d.defs != 0 || d.refs != 7):
			t.Errorf("seed 0: %d deltas, %d definitions, %d references", len(tf.turn.Insts), d.defs, d.refs)
		case !honest && err == nil:
			t.Errorf("seed %d, a forgery, decodes", i)
		}
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		name := fmt.Sprintf("%x", sha256.Sum256([]byte(content)))[:16]
		path := filepath.Join("testdata", "fuzz", "FuzzTurnFrame", name)
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Errorf("seed %d is not committed as %s (%v)", i, path, err)
		}
	}
}

// FuzzTurnFrame fuzzes the one payload whose content reaches the
// engine: the deltas of an ftTurn are absorbed into the control's
// conflict set, resolved over and fired. Whatever decodes must
// re-encode to a fixed point (decode, encode, decode, encode: the two
// encoder outputs are equal; a worker encodes the activations the
// deltas come from, actsOf), and a session handed its deltas must get
// through absorb and one Step — resolve on recency computed from the
// decoded wmes, act on the winner — without a panic: the decoder, not
// the engine, is where a delta's shape is checked.
func FuzzTurnFrame(f *testing.F) {
	network, _ := mustCompile("blocks")
	table := network.Layouts()
	for _, seed := range turnSeeds(network) {
		f.Add(seed)
	}
	wl, err := workloads.Named("blocks")
	if err != nil {
		f.Fatal(err)
	}
	prog, err := ops5.ParseProgram(wl.Program)
	if err != nil {
		f.Fatal(err)
	}
	compiled, err := engine.NewCompiled(prog, network)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := fixtureTable()
		d := dec{Dec: wire.Dec{B: data}, nbuckets: rete.DefaultNBuckets, workers: 2, tab: tab, layouts: table}
		var tf turnFrame
		if d.turn(network, &tf) != nil {
			return
		}
		e1, e2 := enc{tab: tab, refsOnly: true, layouts: table}, enc{tab: tab, refsOnly: true, layouts: table}
		tf.turn.Acts = actsOf(tab, tf.turn.Insts)
		buf := payloadOf(&e1, func(e *enc) { e.turn(tf.n, tf.stamps, tf.flushes, &tf.turn) })
		d2 := dec{Dec: wire.Dec{B: buf}, nbuckets: d.nbuckets, workers: d.workers, tab: tab, layouts: table}
		var tf2 turnFrame
		if err := d2.turn(network, &tf2); err != nil {
			t.Fatalf("re-encoded turn failed to decode: %v", err)
		}
		tf2.turn.Acts = actsOf(tab, tf2.turn.Insts)
		buf2 := payloadOf(&e2, func(e *enc) { e.turn(tf2.n, tf2.stamps, tf2.flushes, &tf2.turn) })
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("encoder output is not a fixed point:\n 1: %x\n 2: %x", buf, buf2)
		}

		s := compiled.NewSession(engine.SessionOptions{Matcher: &handedDeltas{deltas: tf.turn.Insts}})
		// A right-hand side may fail on wmes of the wrong class (compute
		// on a symbol); it may not panic.
		s.Step()
		for _, in := range s.ConflictSet() {
			if len(in.WMEs) != len(in.Prod.LHS) {
				t.Fatalf("%s stands in the conflict set over %d wmes, its production has %d condition elements", in.Key(), len(in.WMEs), len(in.Prod.LHS))
			}
		}
	})
}
