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
// field by field through a fresh encoder with no cache: every form
// byte in it is chosen by the test. The encoder holds the layout table
// of the network the connection was opened over (nil where the payload
// defines no wme), so a definition the test does not forge is the row
// a real connection would send.
type wireFrame struct {
	ft   frameType
	fill func(e *enc)
}

func (f wireFrame) writeTo(w io.Writer, layouts []*ops5.Layout) error {
	e := enc{layouts: layouts}
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

// helloBytes is a hello payload around netBlob, a network as
// rete.AppendNetwork wrote it — or as a forger did.
func helloBytes(h hello, netBlob []byte) []byte {
	var e enc
	encodeHello(&e, h, netBlob)
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
	good := frameBytes(t, ftBatch, payload)

	t.Run("roundtrip", func(t *testing.T) {
		ft, got, err := readFrame(bytes.NewReader(good))
		if err != nil || ft != ftBatch || !bytes.Equal(got, payload) {
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
		hdr[4] = byte(ftBatch)
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
	t.Run("garbage-batch-payload", func(t *testing.T) {
		net, _ := mustCompile("blocks")
		_, _, _, err := decodeBatch(net, &dec{Dec: wire.Dec{B: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}}, nil)
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
	for _, old := range []byte{2, 3, 4, 5} {
		t.Run(fmt.Sprintf("hello-version-%d", old), func(t *testing.T) {
			// A version-2 peer hashes numbers into other buckets; a
			// version-3 peer spells every wme out and knows no references;
			// a version-4 peer defines a wme attribute by attribute, by
			// name; a version-5 peer ships time tags in its turn frames
			// and expects them. Each must be turned away at the
			// handshake, not mis-join or mis-decode later.
			net, _ := mustCompile("blocks")
			hb := helloBytes(hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, rete.AppendNetwork(nil, net))
			if _, err := decodeHello(hb); err != nil {
				t.Fatalf("current hello refused: %v", err)
			}
			if protoVersion != 6 || hb[0] != protoVersion {
				t.Fatalf("hello leads with %#x, want the version varint 6 (protoVersion %d)", hb[0], protoVersion)
			}
			hb[0] = old
			_, err := decodeHello(hb)
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("version %d hello: got %v, want ErrBadPayload", old, err)
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", old)) || !strings.Contains(msg, "want 6") {
				t.Fatalf("error %q does not name both versions", msg)
			}
		})
	}
	t.Run("hello-older-network-format", func(t *testing.T) {
		// A current hello around a RETENET2 blob, which ships no layout
		// table: the worker could not number a slot, and says so before
		// the first frame.
		net, _ := mustCompile("blocks")
		hb := helloBytes(hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, rete.AppendNetwork(nil, net))
		if bytes.Count(hb, []byte("RETENET3")) != 1 {
			t.Fatal("the hello does not carry a RETENET3 network")
		}
		_, err := decodeHello(bytes.Replace(hb, []byte("RETENET3"), []byte("RETENET2"), 1))
		if !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), `bad network magic "RETENET2"`) {
			t.Fatalf("got %v, want ErrBadPayload naming the magic", err)
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		net, changes := mustCompile("blocks")
		ms := []parallel.Message{{Kind: parallel.MsgCycle, Cycle: &parallel.CyclePacket{Changes: changes}}}
		var e enc
		if err := appendBatch(&e, ms, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := decodeBatch(net, &dec{Dec: wire.Dec{B: append(e.Buf, 0xab)}}, nil); !errors.Is(err, ErrBadPayload) {
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
		if err := e.end(ftBatch); err != nil {
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

	stream := bytes.Repeat(frameBytes(t, ftBatch, payload), 102)
	fr := frameReader{r: bytes.NewReader(stream)}
	if n := testing.AllocsPerRun(100, func() {
		if ft, got, err := fr.next(); err != nil || ft != ftBatch || len(got) != len(payload) {
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

// TestBatchRoundTrip re-encodes a decoded batch and requires
// byte-identical output: the codec is canonical, which is what lets
// the CI smoke test assert conflict-set byte parity across processes.
// With a fresh cache at each end the property covers both forms: the
// second message deletes wmes the first defined, so it is encoded, and
// re-encoded, as references.
func TestBatchRoundTrip(t *testing.T) {
	net, changes := mustCompile("blocks")
	ms := []parallel.Message{
		{Kind: parallel.MsgCycle, Cycle: &parallel.CyclePacket{Changes: changes}},
		{Kind: parallel.MsgCycle, Cycle: &parallel.CyclePacket{Changes: []rete.Change{
			{Tag: rete.Delete, WME: changes[0].WME}, {Tag: rete.Delete, WME: changes[2].WME},
		}}},
	}
	table := net.Layouts()
	e := enc{cache: new(wmeCache), layouts: table}
	if err := appendBatch(&e, ms, 7, 3); err != nil {
		t.Fatal(err)
	}
	if e.cache.defs != int64(len(changes)) || e.cache.refs != 2 {
		t.Fatalf("encoded %d definitions and %d references, want %d and 2", e.cache.defs, e.cache.refs, len(changes))
	}
	got, batch, src, err := decodeBatch(net, &dec{Dec: wire.Dec{B: e.Buf}, cache: new(wmeCache), layouts: table}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batch != 7 || src != 3 || len(got) != len(ms) {
		t.Fatalf("batch=%d src=%d len=%d", batch, src, len(got))
	}
	if del, def := got[1].Cycle.Changes[1].WME, got[0].Cycle.Changes[2].WME; del != def {
		t.Fatalf("reference decoded to %p, its definition to %p: want the one cached copy", del, def)
	}
	if w := got[0].Cycle.Changes[0].WME; w.Layout() != net.Layout(w.Class) || w.Layout() == nil {
		t.Fatalf("%s decoded into layout %p, want its class's", w, w.Layout())
	}
	e2 := enc{cache: new(wmeCache), layouts: table}
	if err := appendBatch(&e2, got, 7, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Buf, e2.Buf) {
		t.Fatal("re-encoded batch differs: codec is not canonical")
	}
	// Without a cache the same batch is all definitions, and a decoder
	// without one refuses the cached encoding's references.
	plain := enc{layouts: table}
	if err := appendBatch(&plain, ms, 7, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodeBatch(net, &dec{Dec: wire.Dec{B: plain.Buf}, layouts: table}, nil); err != nil {
		t.Fatalf("uncached batch: %v", err)
	}
	if _, _, _, err := decodeBatch(net, &dec{Dec: wire.Dec{B: e.Buf}, layouts: table}, nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("references decoded without a cache: err=%v", err)
	}
}

// fuzzBatchFrames is the committed seeds' shape: one ftBatch frame per
// change list, all from one encoder holding the network's layout table,
// so the later lists refer to wmes the earlier ones defined.
func fuzzBatchFrames(table []*ops5.Layout, lists ...[]rete.Change) []byte {
	e := enc{cache: new(wmeCache), layouts: table}
	for _, chs := range lists {
		e.begin()
		if err := appendBatch(&e, []parallel.Message{{Kind: parallel.MsgCycle, Cycle: &parallel.CyclePacket{Changes: chs}}}, 1, 0); err != nil {
			panic(err)
		}
		if err := e.end(ftBatch); err != nil {
			panic(err)
		}
	}
	return e.Buf
}

// fuzzSlotFormSeeds are streams in the slot form of a definition: the
// blocks workload's own wmes (full rows), and the rows a workload does
// not happen to have — absent slots ahead of a present one, named
// extras around the slots, a class with no layout, the empty wme — each
// defined, then deleted by reference.
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
	return [][]byte{
		fuzzBatchFrames(net.Layouts(), changes, []rete.Change{{Tag: rete.Delete, WME: changes[1].WME}, {Tag: rete.Delete, WME: changes[0].WME}}),
		fuzzBatchFrames(net.Layouts(), edge, gone),
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
		d := dec{nbuckets: rete.DefaultNBuckets, workers: 2, cache: new(wmeCache), layouts: net.Layouts()}
		fr := frameReader{r: bytes.NewReader(data)}
		var lists [][]rete.Change
		for {
			ft, payload, err := fr.next()
			if err != nil {
				break
			}
			d.Reset(payload)
			ms, _, _, err := decodeBatch(net, &d, nil)
			if err != nil || ft != ftBatch || len(ms) != 1 {
				t.Fatalf("seed %d: frame %d: ft=%v messages=%d err=%v", i, len(lists), ft, len(ms), err)
			}
			lists = append(lists, ms[0].Cycle.Changes)
		}
		if len(lists) != 2 || d.cache.defs != int64(len(lists[0])) || d.cache.refs != int64(len(lists[1])) {
			t.Fatalf("seed %d: %d frames, %d definitions, %d references", i, len(lists), d.cache.defs, d.cache.refs)
		}
		for _, ch := range lists[0] {
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
// ones: no input may panic or over-read, and any run of batches that
// decodes must re-encode canonically (decode∘encode is a fixed point).
func FuzzTransportFrame(f *testing.F) {
	net, changes := mustCompile("blocks")
	table := net.Layouts()
	slotForm := fuzzSlotFormSeeds(net, changes)
	f.Add(slotForm[0])
	{
		var b bytes.Buffer
		writeFrame(&b, ftHello, helloBytes(hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, rete.AppendNetwork(nil, net)))
		f.Add(b.Bytes())
	}
	f.Add([]byte{0, 0, 0, 1, byte(ftShutdown)})
	f.Add(slotForm[1])
	f.Fuzz(func(t *testing.T, data []byte) {
		// The topology bounds decoded bucket and worker indices are held
		// to, the stream's receive cache, and the layout table its
		// definitions are rows of.
		d := dec{nbuckets: rete.DefaultNBuckets, workers: 2, cache: new(wmeCache), layouts: table}
		var batches [][]parallel.Message
		var stamps [][2]int32
		fr := frameReader{r: bytes.NewReader(data)}
		for {
			ft, payload, err := fr.next()
			if err != nil {
				break
			}
			d.Reset(payload)
			switch ft {
			case ftBatch:
				ms, batch, src, err := decodeBatch(net, &d, nil)
				if err != nil {
					return
				}
				batches = append(batches, ms)
				stamps = append(stamps, [2]int32{batch, src})
			case ftHello:
				decodeHello(payload)
			case ftActs, ftRelay:
				if ft == ftRelay {
					d.worker() // destination
				} else {
					d.I32() // batch
					d.I32() // src
				}
				d.actList(net, nil)
			case ftBucket:
				d.bucketContents(net)
			case ftTurn:
				d.turn(net, new(turnFrame))
			}
		}
		// Adversarial payloads may use non-minimal varints, and may
		// define one (ID, TimeTag) twice, so the raw input need not
		// re-encode byte-identically. The canonical property is that
		// ENCODER output is a fixed point: decode, re-encode, decode,
		// re-encode — the two encoder outputs must match exactly, frame
		// by frame, with one cache per end per pass.
		e1, e2 := enc{cache: new(wmeCache), layouts: table}, enc{cache: new(wmeCache), layouts: table}
		d2 := dec{nbuckets: d.nbuckets, workers: d.workers, cache: new(wmeCache), layouts: table}
		for i, ms := range batches {
			batch, src := stamps[i][0], stamps[i][1]
			buf := payloadOf(&e1, func(e *enc) {
				if err := appendBatch(e, ms, batch, src); err != nil {
					t.Fatalf("decoded batch failed to re-encode: %v", err)
				}
			})
			d2.Reset(buf)
			ms2, b2, s2, err := decodeBatch(net, &d2, nil)
			if err != nil {
				t.Fatalf("re-encoded batch failed to decode: %v", err)
			}
			buf2 := payloadOf(&e2, func(e *enc) {
				if err := appendBatch(e, ms2, b2, s2); err != nil {
					t.Fatalf("second re-encode failed: %v", err)
				}
			})
			if b2 != batch || s2 != src || !bytes.Equal(buf, buf2) {
				t.Fatalf("encoder output is not a fixed point at frame %d:\n 1: %x\n 2: %x", i, buf, buf2)
			}
		}
	})
}
