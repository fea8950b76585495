package transport

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/wire"
	"mpcrete/internal/workloads"
)

// handedDeltas is the match phase of a control whose worker sent one
// turn frame: it answers the first Apply with the frame's deltas, as
// the cycle driver hands them to the engine.
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
				tok[pos] = handle[ic.WMEs()[ce]]
			}
		}
		acts[i] = prodAct(ic.Info.Node, ic.Tag, tok...)
	}
	return acts
}

// seedRing is the ring capacity a recorded turn frame is decoded under.
const seedRing = 64

// honestRecord is what a worker under a recorder hands over of a turn
// that drained a run of two activations from worker 2, performed one
// and flushed: the events on its clock, the turn's aggregate, the clock
// at send.
func honestRecord() *turnRecord {
	nv := obs.NoValue
	return &turnRecord{sent: 900, events: []obs.CausalEvent{
		{Kind: obs.EvTurnBegin, TS: 100, Src: nv, Dst: nv, Bucket: nv},
		{Kind: obs.EvRecv, TS: 100, Batch: 4, Src: 2, Dst: nv, Bucket: nv, Count: 2},
		{Kind: obs.EvHandle, TS: 100, Src: nv, Dst: nv, Bucket: 3, Depth: 2, Count: 1},
		{Kind: obs.EvFlush, TS: 300, Src: nv, Dst: nv, Bucket: nv, Count: 1},
		{Kind: obs.EvTurnEnd, TS: 400, Src: nv, Dst: nv, Bucket: nv, Count: 2, Depth: 1},
	}, agg: obs.CycleAgg{Handles: 1, Recvs: 2, Flushes: 1, MaxDepth: 2}}
}

// turnSeeds are ftTurn payloads over the blocks network, as a worker
// holding faultWME at faultHandle sends them: an honest turn (two adds,
// one of them over a negated production, and a delete, every position
// a reference), an empty one, the honest turn again with the record a
// worker under a recorder appends, and the forgeries of deltaFaults,
// the short delta that used to reach Session.act first.
func turnSeeds(network *rete.Network) [][]byte {
	pickUp, allDone := network.Prods["pick-up"].Node, network.Prods["all-done"].Node
	h := faultHandle
	honest := &parallel.Turn{Handled: 7, Acts: []rete.Activation{
		prodAct(pickUp, rete.Add, h, h, h),
		prodAct(allDone, rete.Add, h),
		prodAct(pickUp, rete.Delete, h, h, h),
	}, Loads: []parallel.BucketLoad{{Bucket: 3, N: 7}}}
	worker := func() *enc { return &enc{tab: fixtureTable(), refsOnly: true, layouts: network.Layouts()} }
	seeds := [][]byte{
		payloadOf(worker(), func(e *enc) { e.turn(2, honest, nil) }),
		payloadOf(&enc{layouts: network.Layouts()}, func(e *enc) { e.turn(1, &parallel.Turn{}, nil) }),
		payloadOf(worker(), func(e *enc) { e.turn(2, honest, honestRecord()) }),
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

// decodeTurnFrame decodes data as a turn frame over tab the way a
// control without a recorder does and, failing that, as one with a ring
// of seedRing does. It returns the decoder that took it, whose ring
// says which.
func decodeTurnFrame(network *rete.Network, tab *rete.Table, data []byte) (*turnFrame, *dec, error) {
	var err error
	for _, ring := range []int{0, seedRing} {
		d := &dec{Dec: wire.Dec{B: data}, nbuckets: rete.DefaultNBuckets, workers: 2, ring: ring, tab: tab, layouts: network.Layouts()}
		tf := new(turnFrame)
		if err = d.turn(network, tf); err == nil {
			return tf, d, nil
		}
	}
	return nil, nil, err
}

// encodeTurnFrame re-encodes a decoded turn frame as a worker would,
// with the record exactly when d read one.
func encodeTurnFrame(e *enc, d *dec, tf *turnFrame) []byte {
	var rec *turnRecord
	if d.ring > 0 {
		rec = &tf.rec
	}
	tf.turn.Acts = actsOf(e.tab, tf.turn.Insts)
	return payloadOf(e, func(e *enc) { e.turn(tf.n, &tf.turn, rec) })
}

// TestTurnFrameSeeds keeps FuzzTurnFrame's corpus honest, as
// TestSlotFormSeeds does its neighbour's: the honest seeds decode in
// full (a seed a format change left behind would fuzz nothing), the
// forgeries do not, and each is committed under testdata as generated
// (a stale file fails here; regenerate it from turnSeeds).
func TestTurnFrameSeeds(t *testing.T) {
	network, _ := mustCompile("blocks")
	for i, data := range turnSeeds(network) {
		tf, d, err := decodeTurnFrame(network, fixtureTable(), data)
		switch honest := i < 3; {
		case honest && err != nil:
			t.Errorf("seed %d does not decode: %v", i, err)
		case honest && i != 1 && (len(tf.turn.Insts) != 3 || d.defs != 0 || d.refs != 7 || (d.ring > 0) != (i == 2)):
			t.Errorf("seed %d: %d deltas, %d definitions, %d references, ring %d", i, len(tf.turn.Insts), d.defs, d.refs, d.ring)
		case i == 2 && fmt.Sprint(tf.rec) != fmt.Sprint(*honestRecord()):
			t.Errorf("seed 2 decodes to the record %+v, want %+v", tf.rec, *honestRecord())
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

// TestTurnRecordFaults: a record that names an event kind obs does not
// know, declares more events than its payload holds, or names a track
// outside the topology is refused as ErrBadPayload, as the rest of the
// frame's lies are.
func TestTurnRecordFaults(t *testing.T) {
	network, _ := mustCompile("blocks")
	forged := func(mutate func(ev *obs.CausalEvent)) []byte {
		rec := honestRecord()
		mutate(&rec.events[1])
		return payloadOf(&enc{}, func(e *enc) { e.turn(1, &parallel.Turn{}, rec) })
	}
	for _, row := range []struct {
		name, why string
		payload   []byte
	}{
		{"unknown-kind", "unknown kind 12", forged(func(ev *obs.CausalEvent) { ev.Kind = obs.EvMigrateEnd + 1 })},
		{"track-out-of-range", "track 3 or -3 out of range", forged(func(ev *obs.CausalEvent) { ev.Src = 3 })},
		{"track-below-markers", "track 2 or -4 out of range", forged(func(ev *obs.CausalEvent) { ev.Dst = -4 })},
		{"count-beyond-payload", "count 60 exceeds limit", payloadOf(&enc{}, func(e *enc) {
			e.turn(1, &parallel.Turn{}, nil)
			e.I64(900) // sent
			e.Count(60)
			for range 7 {
				e.I32(0)
			}
		})},
		{"count-beyond-ring", "count 65 exceeds limit", payloadOf(&enc{}, func(e *enc) {
			e.turn(1, &parallel.Turn{}, &turnRecord{events: make([]obs.CausalEvent, seedRing+1)})
		})},
	} {
		d := dec{Dec: wire.Dec{B: row.payload}, nbuckets: rete.DefaultNBuckets, workers: 2, ring: seedRing, tab: fixtureTable(), layouts: network.Layouts()}
		if err := d.turn(network, new(turnFrame)); !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), row.why) {
			t.Errorf("%s: got %v, want ErrBadPayload saying %q", row.name, err, row.why)
		}
	}
}

// FuzzTurnFrame fuzzes the one payload whose content reaches the
// engine: the deltas of an ftTurn are absorbed into the control's
// conflict set, resolved over and fired. Whatever decodes, with a
// record or without, must re-encode to a fixed point (decode, encode, decode, encode: the two
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
		tf, d, err := decodeTurnFrame(network, tab, data)
		if err != nil {
			return
		}
		e1, e2 := enc{tab: tab, refsOnly: true, layouts: table}, enc{tab: tab, refsOnly: true, layouts: table}
		buf := encodeTurnFrame(&e1, d, tf)
		d2 := dec{Dec: wire.Dec{B: buf}, nbuckets: d.nbuckets, workers: d.workers, ring: d.ring, tab: tab, layouts: table}
		var tf2 turnFrame
		if err := d2.turn(network, &tf2); err != nil {
			t.Fatalf("re-encoded turn failed to decode: %v", err)
		}
		if buf2 := encodeTurnFrame(&e2, &d2, &tf2); !bytes.Equal(buf, buf2) {
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
