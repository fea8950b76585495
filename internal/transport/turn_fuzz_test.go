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

// turnSeeds are ftTurn payloads over the blocks network: an honest turn
// (two adds, one of them over a negated production, and a delete by
// reference), an empty one, and the forgeries of deltaFaults, the short
// delta that used to reach Session.act first.
func turnSeeds(network *rete.Network) [][]byte {
	pickUp, allDone := network.Prods["pick-up"], network.Prods["all-done"]
	w := network.Conform(faultWME())
	w.ID, w.TimeTag = 5, 9
	honest := &parallel.Turn{Handled: 7, MaxDepth: 3, Insts: []rete.InstChange{
		{Tag: rete.Add, Info: pickUp, WMEs: []*ops5.WME{w, w, w}},
		{Tag: rete.Add, Info: allDone, WMEs: []*ops5.WME{w, nil, nil}},
		{Tag: rete.Delete, Info: pickUp, WMEs: []*ops5.WME{w, w, w}},
	}, Loads: []parallel.BucketLoad{{Bucket: 3, N: 7}}}
	seeds := [][]byte{
		payloadOf(&enc{cache: new(wmeCache), layouts: network.Layouts()}, func(e *enc) {
			e.turn(2, []parallel.RecvStamp{{Batch: 4, Src: 2, Count: 2}}, 1, honest)
		}),
		payloadOf(&enc{layouts: network.Layouts()}, func(e *enc) { e.turn(1, nil, 0, &parallel.Turn{}) }),
	}
	sn := shapeNodes{prod3: pickUp.Node, prodNeg: allDone.Node}
	for _, row := range deltaFaults {
		if row.why == "" {
			continue
		}
		frame := turnOf(row.node(sn), len(row.filled), func(e *enc) { forgeDelta(e, w, row.filled...) })
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
		d := dec{Dec: wire.Dec{B: data}, nbuckets: rete.DefaultNBuckets, workers: 2, cache: new(wmeCache), layouts: network.Layouts()}
		var tf turnFrame
		err := d.turn(network, &tf)
		switch honest := i < 2; {
		case honest && err != nil:
			t.Errorf("seed %d does not decode: %v", i, err)
		case honest && i == 0 && (len(tf.turn.Insts) != 3 || d.cache.defs != 1 || d.cache.refs != 6):
			t.Errorf("seed 0: %d deltas, %d definitions, %d references", len(tf.turn.Insts), d.cache.defs, d.cache.refs)
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
// encoder outputs are equal), and a session handed its deltas must get
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
		d := dec{Dec: wire.Dec{B: data}, nbuckets: rete.DefaultNBuckets, workers: 2, cache: new(wmeCache), layouts: table}
		var tf turnFrame
		if d.turn(network, &tf) != nil {
			return
		}
		e1, e2 := enc{cache: new(wmeCache), layouts: table}, enc{cache: new(wmeCache), layouts: table}
		buf := payloadOf(&e1, func(e *enc) { e.turn(tf.n, tf.stamps, tf.flushes, &tf.turn) })
		d2 := dec{Dec: wire.Dec{B: buf}, nbuckets: d.nbuckets, workers: d.workers, cache: new(wmeCache), layouts: table}
		var tf2 turnFrame
		if err := d2.turn(network, &tf2); err != nil {
			t.Fatalf("re-encoded turn failed to decode: %v", err)
		}
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
