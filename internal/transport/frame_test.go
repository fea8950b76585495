package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/wire"
	"mpcrete/internal/workloads"
)

// mustCompile compiles a named workload outside a *testing.T (shared
// with the fuzz target's setup).
func mustCompile(name string) (*rete.Network, []rete.Change) {
	wl, err := workloads.Named(name)
	if err != nil {
		panic(err)
	}
	prog, err := ops5.ParseProgram(wl.Program)
	if err != nil {
		panic(err)
	}
	wmes, err := ops5.ParseWMEs(wl.WMEs)
	if err != nil {
		panic(err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		panic(err)
	}
	changes := make([]rete.Change, len(wmes))
	for i, w := range wmes {
		w.ID, w.TimeTag = i+1, i+1
		changes[i] = rete.Change{Tag: rete.Add, WME: w}
	}
	return net, changes
}

// wireFrame is one frame a test puts on the wire, its payload written
// field by field through a fresh encoder over fixtureTable with no send
// state: every form byte in it is chosen by the test, and a wme the
// encoder names is defined at its first mention. The encoder holds the layout table
// of the network the connection was opened over (nil where the payload
// defines no wme), so a definition the test does not forge is the row
// a real connection would send.
type wireFrame struct {
	ft   frameType
	fill func(e *enc)
}

func (f wireFrame) writeTo(w io.Writer, layouts []*ops5.Layout) error {
	e := enc{tab: fixtureTable(), layouts: layouts}
	e.begin()
	f.fill(&e)
	if err := e.end(f.ft); err != nil {
		return err
	}
	return e.flush(w)
}

// writeFrame writes one frame with the given payload.
func writeFrame(w io.Writer, ft frameType, payload []byte) error {
	return wireFrame{ft, func(e *enc) { e.Raw(payload) }}.writeTo(w, nil)
}

// readFrame reads one frame through a fresh reader.
func readFrame(r io.Reader) (frameType, []byte, error) {
	return (&frameReader{r: r}).next()
}

// payloadOf runs fill against e and returns the bytes it appended.
func payloadOf(e *enc, fill func(*enc)) []byte {
	e.Buf = e.Buf[:0]
	fill(e)
	return append([]byte(nil), e.Buf...)
}

// helloBytes is a hello payload around program, a network's program as
// appendProgram wrote it — or as a forger did.
func helloBytes(h hello, program []byte) []byte {
	var e enc
	encodeHello(&e, h, program)
	return e.Buf
}

func frameBytes(t *testing.T, ft frameType, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeFrame(&b, ft, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFrameFaults drives the reader with damaged streams and checks
// each failure maps to its typed error, so the runtime can distinguish
// a clean shutdown from wire corruption.
func TestFrameFaults(t *testing.T) {
	payload := []byte{1, 2, 3, 4}
	good := frameBytes(t, ftCycle, payload)

	t.Run("roundtrip", func(t *testing.T) {
		ft, got, err := readFrame(bytes.NewReader(good))
		if err != nil || ft != ftCycle || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: ft=%v payload=%v err=%v", ft, got, err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		_, _, err := readFrame(bytes.NewReader(good[:3]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		_, _, err := readFrame(bytes.NewReader(good[:len(good)-2]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		hdr := make([]byte, 5)
		binary.BigEndian.PutUint32(hdr, MaxFrame+1)
		hdr[4] = byte(ftCycle)
		_, _, err := readFrame(bytes.NewReader(hdr))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("zero-length", func(t *testing.T) {
		hdr := make([]byte, 4)
		_, _, err := readFrame(bytes.NewReader(hdr))
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("got %v, want ErrBadPayload", err)
		}
	})
	t.Run("unknown-type", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 0x7f
		_, _, err := readFrame(bytes.NewReader(bad))
		if !errors.Is(err, ErrUnknownFrameType) {
			t.Fatalf("got %v, want ErrUnknownFrameType", err)
		}
	})
	t.Run("reserved-type-3", func(t *testing.T) {
		// The byte of a retired frame stays reserved: no frame of the
		// star may be read as one, nor one as a frame of the star.
		bad := append([]byte(nil), good...)
		bad[4] = 3
		_, _, err := readFrame(bytes.NewReader(bad))
		if !errors.Is(err, ErrUnknownFrameType) || frameType(3).known() {
			t.Fatalf("got %v, want ErrUnknownFrameType", err)
		}
	})
	t.Run("garbage-batch-payload", func(t *testing.T) {
		net, _ := mustCompile("blocks")
		_, err := decodeDelivery(net, &dec{Dec: wire.Dec{B: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}}, ftCycle)
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("got %v, want ErrBadPayload", err)
		}
	})
	t.Run("garbage-hello", func(t *testing.T) {
		_, err := decodeHello([]byte{0x01, 0x00, 0xff})
		if err == nil {
			t.Fatal("decoded garbage hello")
		}
	})
	for _, old := range []byte{2, 3, 4, 5, 6, 7, 8, 9, 10} {
		t.Run(fmt.Sprintf("hello-version-%d", old), func(t *testing.T) {
			// A version-2 peer hashes numbers into other buckets; a
			// version-3 peer spells every wme out and knows no references;
			// a version-4 peer defines a wme attribute by attribute, by
			// name; a version-5 peer ships time tags in its turn frames
			// and expects them; a version-6 peer ships a compiled network
			// and expects one; a version-7 peer folds keys byte by byte,
			// so at two workers it agrees on every key's owner but not on
			// its bucket; a version-8 peer names a wme by (ID, TimeTag) in
			// a cache of its own and defines back what it was sent; a
			// version-9 peer ships bucket contents self-contained, to be
			// forwarded verbatim, and takes orders and buckets unstamped; a
			// version-10 peer echoes recv stamps, a flush count and a depth
			// in every turn frame, and reads no ring capacity in the hello.
			// Each must be turned away at the handshake, not mis-join or
			// mis-decode later.
			net, _ := mustCompile("blocks")
			hb := helloBytes(hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, appendProgram(nil, net))
			if _, err := decodeHello(hb); err != nil {
				t.Fatalf("current hello refused: %v", err)
			}
			if protoVersion != 11 || hb[0] != protoVersion {
				t.Fatalf("hello leads with %#x, want the version varint 11 (protoVersion %d)", hb[0], protoVersion)
			}
			hb[0] = old
			_, err := decodeHello(hb)
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("version %d hello: got %v, want ErrBadPayload", old, err)
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", old)) || !strings.Contains(msg, "want 11") {
				t.Fatalf("error %q does not name both versions", msg)
			}
		})
	}
	t.Run("hello-unknown-variant", func(t *testing.T) {
		// A current hello naming a variant this worker's compiler does not
		// know: the worker could not build the control's network, and
		// says so before the first frame.
		net, _ := mustCompile("blocks")
		hb := helloBytes(hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, appendProgram(nil, net))
		if bytes.Count(hb, []byte("\x06shared")) != 1 {
			t.Fatal("the hello does not name the shared variant")
		}
		_, err := decodeHello(bytes.Replace(hb, []byte("\x06shared"), []byte("\x06shaped"), 1))
		if !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), `unknown network variant "shaped"`) {
			t.Fatalf("got %v, want ErrBadPayload naming the variant", err)
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		net, changes := mustCompile("blocks")
		tab := rete.NewTable()
		e := enc{tab: tab}
		delivery{ft: ftCycle, batch: 1, changes: changes, handles: tab.Handles(changes, nil)}.encode(&e)
		if _, err := decodeDelivery(net, &dec{Dec: wire.Dec{B: append(e.Buf, 0xab)}, tab: rete.NewTable(), mirror: true}, ftCycle); !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("got %v, want ErrBadPayload for trailing bytes", err)
		}
	})
}

// TestFrameAllocs pins the frame layer at zero allocations per frame
// in steady state: the header is built in place ahead of the payload
// and leaves with it in one Write, and the reader owns its header
// scratch and payload buffer.
func TestFrameAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 100)
	var e enc
	var sink countWriter
	if n := testing.AllocsPerRun(100, func() {
		e.begin()
		e.Raw(payload)
		if err := e.end(ftCycle); err != nil {
			t.Fatal(err)
		}
		if err := e.flush(&sink); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("writing a frame allocates %v times, want 0", n)
	}
	if sink.writes == 0 || sink.n != sink.writes*(frameHeader+len(payload)) {
		t.Errorf("%d bytes in %d writes: want one Write of %d bytes per frame", sink.n, sink.writes, frameHeader+len(payload))
	}

	stream := bytes.Repeat(frameBytes(t, ftCycle, payload), 102)
	fr := frameReader{r: bytes.NewReader(stream)}
	if n := testing.AllocsPerRun(100, func() {
		if ft, got, err := fr.next(); err != nil || ft != ftCycle || len(got) != len(payload) {
			t.Fatalf("ft=%v len=%d err=%v", ft, len(got), err)
		}
	}); n != 0 {
		t.Errorf("reading a frame allocates %v times, want 0", n)
	}
}

// countWriter counts Write calls and bytes.
type countWriter struct{ writes, n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	w.n += len(p)
	return len(p), nil
}

// delivery is a decoded control→worker delivery: an ftCycle's changes
// and their handles, or an ftActs' activations, under the causal stamp
// both open with.
type delivery struct {
	ft         frameType
	batch, src int32
	changes    []rete.Change
	handles    []int32
	acts       []parallel.Message
}

// encode writes the payload as the control does (Control.deliver, for
// the driver's messages and for relays alike).
func (f delivery) encode(e *enc) {
	e.I32(f.batch)
	e.I32(f.src)
	if f.ft == ftCycle {
		e.changes(f.changes, f.handles)
	} else {
		e.actList(f.acts)
	}
}

// decodeDelivery decodes an ftCycle or ftActs payload (d.B) as a worker
// does.
func decodeDelivery(net *rete.Network, d *dec, ft frameType) (delivery, error) {
	f := delivery{ft: ft, batch: d.I32(), src: d.I32()}
	if ft == ftCycle {
		var pkt parallel.CyclePacket
		d.changes(&pkt)
		f.changes, f.handles = pkt.Changes, pkt.Handles
	} else {
		f.acts = d.actList(net, nil)
	}
	return f, d.Done()
}

// deliveryFrames frames deliveries through e as one connection's
// stream: later frames refer to wmes the earlier ones defined.
func deliveryFrames(e enc, fs ...delivery) []byte {
	for _, f := range fs {
		e.begin()
		f.encode(&e)
		if err := e.end(f.ft); err != nil {
			panic(err)
		}
	}
	return e.Buf
}

// readDeliveries decodes a stream of deliveries through one decoder.
func readDeliveries(net *rete.Network, d *dec, data []byte) ([]delivery, error) {
	var fs []delivery
	fr := frameReader{r: bytes.NewReader(data)}
	for {
		ft, payload, err := fr.next()
		if err == io.EOF {
			return fs, nil
		}
		if err != nil {
			return fs, err
		}
		if ft != ftCycle && ft != ftActs {
			return fs, fmt.Errorf("%s frame in a stream of deliveries", ft)
		}
		d.Reset(payload)
		f, err := decodeDelivery(net, d, ft)
		if err != nil {
			return fs, err
		}
		fs = append(fs, f)
	}
}

// TestBatchRoundTrip re-encodes decoded deliveries and requires
// byte-identical output: the codec is canonical, which is what lets
// the CI smoke test assert conflict-set byte parity across processes.
// Over a fresh send state and a fresh mirror the property covers both
// forms: the second cycle deletes wmes the first defined, and the
// routed activations carry them, so both are encoded, and re-encoded,
// as references.
func TestBatchRoundTrip(t *testing.T) {
	net, changes := mustCompile("blocks")
	sn := shapeNodesOf(t, net)
	ctl := rete.NewTable()
	hs := ctl.Handles(changes, nil)
	dels := []rete.Change{{Tag: rete.Delete, WME: changes[0].WME}, {Tag: rete.Delete, WME: changes[2].WME}}
	a, b, c := hs[0], hs[1], hs[2]
	fs := []delivery{
		{ft: ftCycle, batch: 7, src: 2, changes: changes, handles: hs},
		{ft: ftCycle, batch: 8, src: 2, changes: dels, handles: ctl.Handles(dels, nil)},
		{ft: ftActs, batch: 9, src: 1, acts: []parallel.Message{
			{Kind: parallel.MsgAct, Bucket: 3, Depth: 1, Act: rete.Activation{Node: sn.join2, Side: rete.Right, Tag: rete.Add, WME: b}},
			{Kind: parallel.MsgAct, Bucket: 5, Depth: 2, Act: rete.Activation{Node: sn.join2, Side: rete.Left, Tag: rete.Delete, Token: rete.Token{H: []int32{a, c}}}},
		}},
	}
	table := net.Layouts()
	stream := deliveryFrames(enc{tab: ctl, layouts: table}, fs...)
	newDec := func(mirror bool, tab *rete.Table) *dec {
		return &dec{nbuckets: rete.DefaultNBuckets, workers: 2, tab: tab, mirror: mirror, layouts: table}
	}
	d := newDec(true, rete.NewTable())
	got, err := readDeliveries(net, d, stream)
	if err != nil {
		t.Fatal(err)
	}
	if d.defs != int64(len(changes)) || d.refs != 5 {
		t.Fatalf("decoded %d definitions and %d references, want %d and 5", d.defs, d.refs, len(changes))
	}
	if len(got) != len(fs) || got[2].batch != 9 || got[2].src != 1 {
		t.Fatalf("decoded %d deliveries, the last stamped (%d, %d)", len(got), got[len(got)-1].batch, got[len(got)-1].src)
	}
	if del, def := got[1].changes[1].WME, got[0].changes[2].WME; del != def || got[1].handles[1] != c {
		t.Fatalf("reference decoded to %p, its definition to %p: want the mirror's one row, at handle %d", del, def, c)
	}
	if tok := got[2].acts[1].Act.Token.H[0]; tok != a || d.tab.WME(tok) != got[0].changes[0].WME {
		t.Fatalf("token reference decoded to handle %d, want %d and the mirror's row", tok, a)
	}
	if w := got[0].changes[0].WME; w.Layout() != net.Layout(w.Class) || w.Layout() == nil {
		t.Fatalf("%s decoded into layout %p, want its class's", w, w.Layout())
	}
	if again := deliveryFrames(enc{tab: d.tab, layouts: table}, got...); !bytes.Equal(again, stream) {
		t.Fatal("re-encoded deliveries differ: codec is not canonical")
	}
	// The control takes no definition, and a mirror that missed the
	// first frame resolves none of the later ones' references.
	if _, err := readDeliveries(net, newDec(false, ctl), stream); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("definitions decoded at the control: err=%v", err)
	}
	later := deliveryFrames(enc{tab: ctl, sent: []int{noTag, 1, 2, 3}, layouts: table}, fs[1:]...)
	if _, err := readDeliveries(net, newDec(true, rete.NewTable()), later); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("references decoded by an empty mirror: err=%v", err)
	}
}

// fuzzSlotFormSeeds are streams in the slot form of a definition: the
// blocks workload's own wmes (full rows), and the rows a workload does
// not happen to have — absent slots ahead of a present one, named
// extras around the slots, a class with no layout, the empty wme — each
// defined in one ftCycle frame, then deleted by reference in a second.
func fuzzSlotFormSeeds(net *rete.Network, changes []rete.Change) [][]byte {
	var edge, gone []rete.Change
	for i, w := range []*ops5.WME{
		ops5.NewWME("block", "on", "table"),
		ops5.NewWME("block", "name", "b9", "aaa", 1, "note", "fragile"),
		ops5.NewWME("hand", "zzz", -0.5),
		ops5.NewWME("ghost", "x", 1, "y", "boo"),
		ops5.NewWME("goal"),
	} {
		w = net.Conform(w)
		w.ID, w.TimeTag = 100+i, 200+i
		edge = append(edge, rete.Change{Tag: rete.Add, WME: w})
		gone = append(gone, rete.Change{Tag: rete.Delete, WME: w})
	}
	cycles := func(first, second []rete.Change) []byte {
		tab := rete.NewTable()
		return deliveryFrames(enc{tab: tab, layouts: net.Layouts()},
			delivery{ft: ftCycle, batch: 1, src: 2, changes: first, handles: tab.Handles(first, nil)},
			delivery{ft: ftCycle, batch: 2, src: 2, changes: second, handles: tab.Handles(second, nil)})
	}
	return [][]byte{
		cycles(changes, []rete.Change{{Tag: rete.Delete, WME: changes[1].WME}, {Tag: rete.Delete, WME: changes[0].WME}}),
		cycles(edge, gone),
	}
}

// TestSlotFormSeeds keeps the fuzz corpus honest: the fuzz body returns
// quietly on a stream that does not decode, so a seed left behind by a
// format change would fuzz nothing. Each slot-form seed must decode in
// full, its second frame all references to the first frame's
// definitions, and must be committed under testdata as generated (a
// stale file fails here; regenerate it from fuzzSlotFormSeeds).
func TestSlotFormSeeds(t *testing.T) {
	net, changes := mustCompile("blocks")
	for i, data := range fuzzSlotFormSeeds(net, changes) {
		d := dec{nbuckets: rete.DefaultNBuckets, workers: 2, tab: rete.NewTable(), mirror: true, layouts: net.Layouts()}
		fs, err := readDeliveries(net, &d, data)
		if err != nil || len(fs) != 2 || d.defs != int64(len(fs[0].changes)) || d.refs != int64(len(fs[1].changes)) {
			t.Fatalf("seed %d: %d frames, %d definitions, %d references, err=%v", i, len(fs), d.defs, d.refs, err)
		}
		for _, ch := range fs[0].changes {
			if ch.WME.Layout() != net.Layout(ch.WME.Class) {
				t.Errorf("seed %d: %s decoded outside its class's layout", i, ch.WME)
			}
		}
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		name := fmt.Sprintf("%x", sha256.Sum256([]byte(content)))[:16]
		if got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzTransportFrame", name)); err != nil || string(got) != content {
			t.Errorf("seed %d is not committed as testdata/fuzz/FuzzTransportFrame/%s (%v)", i, name, err)
		}
	}
}

// FuzzTransportFrame fuzzes the frame reader and the payload codecs
// over a stream of frames decoded through one connection's state, so a
// reference in a later frame meets the definitions of the earlier
// ones: no input may panic or over-read, and any run of control→worker
// deliveries (ftCycle, ftActs) that decodes must re-encode canonically
// (decode∘encode is a fixed point).
func FuzzTransportFrame(f *testing.F) {
	net, changes := mustCompile("blocks")
	table := net.Layouts()
	slotForm := fuzzSlotFormSeeds(net, changes)
	f.Add(slotForm[0])
	{
		var b bytes.Buffer
		writeFrame(&b, ftHello, helloBytes(hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, appendProgram(nil, net)))
		f.Add(b.Bytes())
	}
	f.Add([]byte{0, 0, 0, 1, byte(ftShutdown)})
	f.Add(slotForm[1])
	{
		// A turn frame under a recorder, as a worker sends it.
		var b bytes.Buffer
		writeFrame(&b, ftTurn, payloadOf(&enc{}, func(e *enc) { e.turn(2, &parallel.Turn{Handled: 1}, honestRecord()) }))
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The topology bounds decoded bucket and worker indices are held
		// to, the ring capacity a turn frame's record is held to, the
		// worker's mirror the stream fills, and the layout table its
		// definitions are rows of.
		d := dec{nbuckets: rete.DefaultNBuckets, workers: 2, ring: seedRing, tab: rete.NewTable(), mirror: true, layouts: table}
		var fs []delivery
		fr := frameReader{r: bytes.NewReader(data)}
		for {
			ft, payload, err := fr.next()
			if err != nil {
				break
			}
			d.Reset(payload)
			switch ft {
			case ftCycle, ftActs:
				f, err := decodeDelivery(net, &d, ft)
				if err != nil {
					return
				}
				fs = append(fs, f)
			case ftHello:
				decodeHello(payload)
			case ftRelay:
				d.worker() // destination
				d.actList(net, nil)
			case ftBucket:
				d.I32() // batch
				d.I32() // source
				d.bucketContents(net)
			case ftTurn:
				d.turn(net, new(turnFrame))
			}
		}
		// Adversarial payloads may use non-minimal varints, and may
		// define one handle twice, so the raw input need not re-encode
		// byte-identically. The canonical property is that ENCODER output
		// is a fixed point: decode, re-encode, decode, re-encode — the two
		// encoder outputs must match exactly, frame by frame, each pass
		// encoding from the mirror its decoder filled, with a fresh send
		// state.
		d2 := dec{nbuckets: d.nbuckets, workers: d.workers, tab: rete.NewTable(), mirror: true, layouts: table}
		e1, e2 := enc{tab: d.tab, layouts: table}, enc{tab: d2.tab, layouts: table}
		for i, f := range fs {
			buf := payloadOf(&e1, f.encode)
			d2.Reset(buf)
			f2, err := decodeDelivery(net, &d2, f.ft)
			if err != nil {
				t.Fatalf("re-encoded %s payload failed to decode: %v", f.ft, err)
			}
			if buf2 := payloadOf(&e2, f2.encode); f2.batch != f.batch || f2.src != f.src || !bytes.Equal(buf, buf2) {
				t.Fatalf("encoder output is not a fixed point at delivery %d:\n 1: %x\n 2: %x", i, buf, buf2)
			}
		}
	})
}
