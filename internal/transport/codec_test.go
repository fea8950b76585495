package transport

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"mpcrete/internal/alloc"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/raceflag"
	"mpcrete/internal/rete"
	"mpcrete/internal/wire"
)

// compiledCopy is the network as the other end of a connection holds it:
// compiled from a hello, so the two tables share ids and no pointers.
func compiledCopy(t *testing.T, network *rete.Network) *rete.Network {
	t.Helper()
	h, err := decodeHello(helloBytes(hello{workers: 1, nbuckets: 1, partition: []int{0}}, appendProgram(nil, network)))
	if err != nil {
		t.Fatal(err)
	}
	return h.net
}

// TestDefinitionCodec holds the one definition form to its description:
// a wme crosses as a row of the receiver's own layout of its class —
// leading slots with the trailing absent ones trimmed, then the named
// extras in order; by class name when no layout exists — however the
// sender happened to hold it, and the row is canonical: decoding and
// encoding again gives the same bytes.
func TestDefinitionCodec(t *testing.T) {
	network, _ := compileWorkload(t, "blocks")
	far := compiledCopy(t, network)
	block := network.Layout("block") // name, clear, on
	wider, _ := widerNetwork(t)

	// A wme laid out before its layout grew keeps the later attributes
	// beside its one slot. The layout is a stand-in for block's, in
	// block's place in the sender's table, so the network's own is not
	// touched.
	grown := ops5.NewLayout(block.ID(), "block", "name")
	early := grown.Conform(ops5.NewWME("block", "name", "b1", "on", "table"))
	grown.Add("clear")
	grown.Add("on")
	grownTable := append([]*ops5.Layout(nil), network.Layouts()...)
	grownTable[block.ID()] = grown
	if len(early.Slots()) != 1 || len(early.Extra()) != 1 {
		t.Fatalf("set-up: %d slots and %d extras, want the stale 1 and 1", len(early.Slots()), len(early.Extra()))
	}

	rows := []struct {
		name string
		w    *ops5.WME
		// what the definition must be, field by field
		classRef uint64
		class    string
		slots    []ops5.Value
		extras   []ops5.Attr
	}{
		{name: "full", w: network.Conform(ops5.NewWME("block", "name", "b1", "clear", "yes", "on", "table")),
			classRef: 2, slots: []ops5.Value{ops5.S("b1"), ops5.S("yes"), ops5.S("table")}},
		{name: "trailing-absent-trimmed", w: network.Conform(ops5.NewWME("block", "name", "b1")),
			classRef: 2, slots: []ops5.Value{ops5.S("b1")}},
		{name: "leading-absent-kept", w: network.Conform(ops5.NewWME("block", "on", 3)),
			classRef: 2, slots: []ops5.Value{{}, {}, ops5.N(3)}},
		{name: "empty", w: network.Conform(ops5.NewWME("block")), classRef: 2},
		{name: "extras", w: network.Conform(ops5.NewWME("block", "zeta", 1, "name", "b1", "alpha", "a")),
			classRef: 2, slots: []ops5.Value{ops5.S("b1")},
			extras: []ops5.Attr{{Name: "alpha", Value: ops5.S("a")}, {Name: "zeta", Value: ops5.N(1)}}},
		{name: "class-without-layout", w: network.Conform(ops5.NewWME("probe", "v", 1)),
			class: "probe", extras: []ops5.Attr{{Name: "v", Value: ops5.N(1)}}},
		// Held otherwise by the sender, the same rows.
		{name: "loose", w: ops5.NewWME("block", "on", "table", "name", "b1", "note", "n"),
			classRef: 2, slots: []ops5.Value{ops5.S("b1"), {}, ops5.S("table")}, extras: []ops5.Attr{{Name: "note", Value: ops5.S("n")}}},
		{name: "another-networks-layout", w: wider.Conform(ops5.NewWME("block", "on", "table", "name", "b1")),
			classRef: 2, slots: []ops5.Value{ops5.S("b1"), {}, ops5.S("table")}},
		{name: "laid-out-before-the-layout-grew", w: early,
			classRef: 2, slots: []ops5.Value{ops5.S("b1"), {}, ops5.S("table")}},
	}

	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.w.ID, row.w.TimeTag = 40+i, 90+i
			h := int32(3 + i)
			e := enc{layouts: network.Layouts()}
			if row.w == early {
				e.layouts = grownTable
			}
			e.def(h, row.w)
			var want enc
			forgeDef(&want, h, row.w, row.classRef, row.class, row.slots, row.extras...)
			if !bytes.Equal(e.Buf, want.Buf) {
				t.Fatalf("definition of %s\n  is   %x\n  want %x", row.w, e.Buf, want.Buf)
			}

			d := dec{Dec: wire.Dec{B: e.Buf}, tab: rete.NewTable(), mirror: true, layouts: far.Layouts()}
			if got := d.wme(); got != h {
				t.Fatalf("decoded at handle %d, want %d (%v)", got, h, d.Err)
			}
			got := d.tab.WME(h)
			if err := d.Done(); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(row.w) || got.ID != row.w.ID || got.TimeTag != row.w.TimeTag || got.String() != row.w.String() {
				t.Errorf("decoded %d/%d %s, want %d/%d %s", got.ID, got.TimeTag, got, row.w.ID, row.w.TimeTag, row.w)
			}
			if got.Layout() != far.Layout(row.w.Class) {
				t.Errorf("decoded wme's layout is %p, want the receiving network's %p", got.Layout(), far.Layout(row.w.Class))
			}
			again := enc{layouts: far.Layouts()}
			again.def(h, got)
			if !bytes.Equal(again.Buf, e.Buf) {
				t.Errorf("re-encoded\n  as   %x\n  from %x", again.Buf, e.Buf)
			}
		})
	}
}

// TestDefinitionFaults decodes every wmeFaults row at the codec, where
// the reason is still attached: each must fail with ErrBadPayload for
// the reason its row gives — not pass by tripping over something else —
// and none may panic. The worker's and the control's tests then put the
// same rows on both surfaces.
func TestDefinitionFaults(t *testing.T) {
	network, _ := compileWorkload(t, "blocks")
	w := faultWME()
	for _, row := range wmeFaults {
		t.Run(row.name, func(t *testing.T) {
			e := enc{layouts: network.Layouts()}
			faultChanges(&e, w, row.bad)
			d := dec{Dec: wire.Dec{B: e.Buf}, tab: rete.NewTable(), mirror: true, layouts: network.Layouts()}
			d.changes(new(parallel.CyclePacket))
			err := d.Done()
			if !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), row.why) {
				t.Fatalf("decoder said %v, want ErrBadPayload: ... %s", err, row.why)
			}
		})
	}

	// A definition by layout id means nothing to a decoder that holds a
	// smaller table, or none; bucket contents are no exception.
	wider, crate := widerNetwork(t)
	node := rightAct(network).Node
	var e enc
	bucketWithDef(&e, wider.Layouts(), node, crate)
	for name, table := range map[string][]*ops5.Layout{"smaller-table": network.Layouts(), "no-table": nil} {
		d := dec{Dec: wire.Dec{B: e.Buf}, nbuckets: faultBuckets, workers: faultWorkers, tab: rete.NewTable(), mirror: true, layouts: table}
		d.bucketContents(network)
		if err := d.Done(); !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), "outside the table") {
			t.Errorf("%s: bucket contents decoded with %v, want ErrBadPayload: layout id outside the table", name, err)
		}
	}
	d := dec{Dec: wire.Dec{B: e.Buf}, nbuckets: faultBuckets, workers: faultWorkers, tab: rete.NewTable(), mirror: true, layouts: wider.Layouts()}
	if bc := d.bucketContents(wider); d.Done() != nil || len(bc.RightWMEs) != 1 || !d.tab.WME(bc.RightWMEs[0]).Equal(crate) {
		t.Errorf("the same bytes under the wider table: %v", d.Err)
	}
}

// TestMirrorRecyclesRows: a definition at a handle the mirror already
// fills retires the wme that was there — the control defines a handle
// again only after freeing it — and the mirror's next definition of
// that layout refills the retired row instead of allocating one: the
// redefinition itself, or a later one at another handle. Under
// alloc.Poison (TestPoisonedRewinds) a retired row reads as the
// sentinel, and every definition takes a fresh row: the next row of the
// decoder's chunk, beside the scrubbed ones, which stays live.
func TestMirrorRecyclesRows(t *testing.T) {
	network, _ := compileWorkload(t, "blocks")
	other := network.Layouts()[0].Class()
	if other == "block" {
		other = network.Layouts()[1].Class()
	}
	d := dec{tab: rete.NewTable(), mirror: true, made: ops5.Carver{Floor: mirrorRowsPerChunk}, layouts: network.Layouts()}
	tag := 0
	// define defines w at handle h under the next time tag and returns
	// the mirror's row.
	define := func(h int32, w *ops5.WME) *ops5.WME {
		tag++
		w = network.Conform(w)
		w.ID, w.TimeTag = tag, tag
		e := enc{tab: rete.NewTable(), layouts: network.Layouts()}
		e.def(h, w)
		d.Reset(e.Buf)
		if got := d.optWME(); d.Done() != nil || got != h {
			t.Fatalf("definition at %d decoded to %d: %v", h, got, d.Err)
		}
		row := d.tab.WME(h)
		if row.TimeTag != tag || !row.Equal(w) {
			t.Fatalf("handle %d holds %d:%s, want %d:%s", h, row.TimeTag, row, tag, w)
		}
		return row
	}
	first := define(7, ops5.NewWME("block", "name", "b1", "on", "table"))
	second := define(7, ops5.NewWME("block", "name", "b2"))
	third := define(7, ops5.NewWME(other))
	fourth := define(8, ops5.NewWME("block", "name", "b3", "clear", "yes"))
	if !alloc.Poisoned() {
		if second != first || fourth != first || third == first {
			t.Errorf("rows %p %p %p %p: want the redefinition and the later block to refill the first, the %s a row of its own", first, second, third, fourth, other)
		}
		return
	}
	if first.ID != -1 || second.ID != -1 {
		t.Errorf("retired rows read %d and %d, want the sentinel's -1", first.ID, second.ID)
	}
	if second == first || fourth == first || fourth == second {
		t.Error("a poisoned row was refilled")
	}
	if third.ID != 3 || fourth.ID != 4 {
		t.Errorf("live rows read %d and %d, want 3 and 4", third.ID, fourth.ID)
	}
	// The block rows are consecutive rows of one chunk, the other
	// class's row between the second and fourth if it has their width.
	at := func(w *ops5.WME) uintptr { return uintptr(unsafe.Pointer(w)) }
	if stride := at(second) - at(first); at(second) <= at(first) || at(fourth)-at(second) != stride && at(fourth)-at(second) != 2*stride {
		t.Errorf("block rows at %#x, %#x and %#x: want neighbours in one chunk", at(first), at(second), at(fourth))
	}
}

// TestSymbolTable: a symbol a decoder has met before decodes to the
// string it kept, equal to what wire.Dec.Value allocates afresh, and
// holding no byte of the payload. Past symbolTableCap distinct symbols
// the table stays at its cap, and every further symbol decodes right,
// each a string of its own; a symbol cut short is not kept.
func TestSymbolTable(t *testing.T) {
	var e wire.Enc
	var want []ops5.Value
	for i := range symbolTableCap + 100 {
		sym := ops5.S(fmt.Sprintf("sym-%d", i))
		want = append(want, sym, ops5.N(float64(i)), sym, ops5.Value{})
	}
	for _, v := range want {
		e.Value(v)
	}
	d := dec{Dec: wire.Dec{B: e.Buf}}
	fresh := wire.Dec{B: e.Buf}
	got := make([]ops5.Value, len(want))
	for i := range want {
		if got[i] = d.value(); got[i] != fresh.Value() {
			t.Fatalf("value %d decoded to %v, wire.Dec.Value's %v", i, got[i], want[i])
		}
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	clear(e.Buf)
	for i := 0; i < len(want); i += 4 {
		if got[i] != want[i] || got[i+1] != want[i+1] || got[i+2] != want[i+2] || got[i+3] != want[i+3] {
			t.Fatalf("values %d-%d read %v once the payload is cleared, want %v", i, i+3, got[i:i+4], want[i:i+4])
		}
		interned := unsafe.StringData(got[i].Sym) == unsafe.StringData(got[i+2].Sym)
		if n := i / 4; interned != (n < symbolTableCap) {
			t.Fatalf("symbol %d met twice decoded to one string: %v, want %v", n, interned, n < symbolTableCap)
		}
	}
	if len(d.syms) != symbolTableCap {
		t.Errorf("the table holds %d symbols, want its cap %d", len(d.syms), symbolTableCap)
	}
	var cut wire.Enc
	cut.Value(ops5.S("cut short"))
	short := dec{Dec: wire.Dec{B: cut.Buf[:len(cut.Buf)-1]}}
	if short.value(); short.Err == nil || len(short.syms) != 0 {
		t.Errorf("a cut symbol decoded with %v and left %d symbols in the table", short.Err, len(short.syms))
	}
}

// TestEncodeUnheldHandleFails: a token naming a handle its encoder's
// table does not hold — handle 0, which a run a memory has put back
// reads as under the poison, or a handle never filled — fails its
// frame with an error, on a control's encoder and a worker's alike,
// and every frame after it; it does not crash the encoding process.
func TestEncodeUnheldHandleFails(t *testing.T) {
	tab := rete.NewTable()
	w := ops5.NewWME("a", "x", 1)
	w.ID, w.TimeTag = 1, 1
	tab.Define(1, w)
	for _, refsOnly := range []bool{false, true} {
		for _, h := range []int32{0, 7} {
			e := enc{tab: tab, refsOnly: refsOnly}
			e.begin()
			e.token(rete.Token{H: []int32{1, h}})
			if err := e.end(ftRelay); err == nil {
				t.Errorf("refsOnly=%v: a token naming handle %d encoded without an error", refsOnly, h)
			}
			e.begin()
			e.token(rete.Token{H: []int32{1}})
			if err := e.end(ftRelay); err == nil {
				t.Errorf("refsOnly=%v: the frame after handle %d's encoded without an error", refsOnly, h)
			}
		}
	}
}

// TestRewoundTokensReadTheSentinel: a decoded token is carved from the
// decoder's token arena, which its owner rewinds before the next frame
// that carries tokens. Under the poison a token kept past that rewind
// reads handle 0, the sentinel, not the handles it was decoded with.
func TestRewoundTokensReadTheSentinel(t *testing.T) {
	t.Cleanup(alloc.Poison())
	tab, want := fixtureTable(), []int32{faultHandle, probeHandle}
	e := enc{tab: tab, refsOnly: true}
	e.token(rete.Token{H: want})
	d := dec{Dec: wire.Dec{B: e.Buf}, tab: tab}
	tok := d.token()
	if err := d.Done(); err != nil || !slices.Equal(tok.H, want) {
		t.Fatalf("decoded %v (%v), want %v", tok.H, err, want)
	}
	d.tokens.Rewind()
	if !slices.Equal(tok.H, []int32{0, 0}) {
		t.Fatalf("a token kept past its rewind reads %v, want the sentinel handle 0", tok.H)
	}
}

// forgedCountFrames are an acts frame and a turn frame's payload that
// each declare 2^24 elements in 64 bytes. They are committed as seeds
// of FuzzTransportFrame (the whole frame) and FuzzTurnFrame (the
// payload), so the fuzz smoke starts from a forged count.
func forgedCountFrames() (actsFrame, turnPayload []byte) {
	pad := func(b []byte) []byte { return append(b, make([]byte, 64-len(b))...) }
	acts := pad(payloadOf(&enc{}, func(e *enc) {
		e.I32(0) // batch
		e.I32(2) // source: the control
		e.Count(1 << 24)
	}))
	var b bytes.Buffer
	writeFrame(&b, ftActs, acts)
	turn := pad(payloadOf(&enc{}, func(e *enc) {
		e.Int(1)         // messages processed
		e.I64(0)         // activations
		e.Count(1 << 24) // deltas
		e.Count(1 << 24) // wme positions
	}))
	return b.Bytes(), turn
}

// TestReservationsHeldToTheFrame: a count a frame declares sizes the
// buffer it fills only as far as the frame's bytes could fill it
// (dec.fits). An acts frame and a turn frame that declare 2^24 elements
// in a 64-byte payload, and two that declare as many elements as their
// payload has bytes left, are refused with ErrBadPayload, and decoding
// one allocates at most 16 times its payload. From the counts alone the
// first two would reserve over a gigabyte, and the last two 76 and 38
// times their payload.
func TestReservationsHeldToTheFrame(t *testing.T) {
	network, _ := mustCompile("blocks")
	actsFrame, turnPayload := forgedCountFrames()
	_, actsPayload, err := readFrame(bytes.NewReader(actsFrame))
	if err != nil {
		t.Fatal(err)
	}
	// As many elements as bytes left: Count lets the count through.
	byteCount := func(head func(e *enc)) []byte {
		e := enc{}
		head(&e)
		n := 64 - len(e.Buf) - 1 // a count under 128 takes a byte
		e.Count(n)
		return append(e.Buf, make([]byte, n)...)
	}
	actsFull := byteCount(func(e *enc) { e.I32(0); e.I32(2) })
	turnFull := byteCount(func(e *enc) { e.Int(1); e.I64(0) })

	// A worker's decoder for the acts, a control's for the turns; every
	// decode reserves afresh.
	wd := dec{nbuckets: rete.DefaultNBuckets, workers: 2, tab: fixtureTable(), mirror: true, layouts: network.Layouts()}
	cd := dec{nbuckets: rete.DefaultNBuckets, workers: 2, tab: fixtureTable(), layouts: network.Layouts()}
	var tf turnFrame
	acts := func(p []byte) error {
		wd.Reset(p)
		wd.I32()
		wd.I32()
		wd.actList(network, nil)
		return wd.Done()
	}
	turn := func(p []byte) error {
		cd.Reset(p)
		tf = turnFrame{}
		return cd.turn(network, &tf)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"acts declaring 2^24", actsPayload, acts},
		{"turn declaring 2^24", turnPayload, turn},
		{"acts declaring its bytes", actsFull, acts},
		{"turn declaring its bytes", turnFull, turn},
	} {
		if len(c.payload) != 64 {
			t.Fatalf("%s: a %d-byte payload, want 64", c.name, len(c.payload))
		}
		if err := c.decode(c.payload); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: %v, want ErrBadPayload", c.name, err)
		}
		if raceflag.Enabled {
			continue // escape analysis decides differently under the race detector
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			c.decode(c.payload)
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes allocated per decode", c.name, per)
		if per > 16*uint64(len(c.payload)) {
			t.Errorf("%s: decoding a %d-byte payload allocates %d bytes, want at most 16 times the payload", c.name, len(c.payload), per)
		}
	}
}

// TestForgedCountSeeds: forgedCountFrames are committed as the seeds
// named by their content, as the fuzzers' other generated seeds are.
func TestForgedCountSeeds(t *testing.T) {
	actsFrame, turnPayload := forgedCountFrames()
	for fuzzer, data := range map[string][]byte{"FuzzTransportFrame": actsFrame, "FuzzTurnFrame": turnPayload} {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		name := fmt.Sprintf("%x", sha256.Sum256([]byte(content)))[:16]
		path := filepath.Join("testdata", "fuzz", fuzzer, name)
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Errorf("the forged-count seed of %s is not committed as %s (%v)", fuzzer, path, err)
		}
	}
}
