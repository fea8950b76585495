package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
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
// byte in it is chosen by the test.
type wireFrame struct {
	ft   frameType
	fill func(e *enc)
}

func (f wireFrame) writeTo(w io.Writer) error {
	var e enc
	e.begin()
	f.fill(&e)
	if err := e.end(f.ft); err != nil {
		return err
	}
	return e.flush(w)
}

// writeFrame writes one frame with the given payload.
func writeFrame(w io.Writer, ft frameType, payload []byte) error {
	return wireFrame{ft, func(e *enc) { e.raw(payload) }}.writeTo(w)
}

// readFrame reads one frame through a fresh reader.
func readFrame(r io.Reader) (frameType, []byte, error) {
	return (&frameReader{r: r}).next()
}

// payloadOf runs fill against e and returns the bytes it appended.
func payloadOf(e *enc, fill func(*enc)) []byte {
	e.buf = e.buf[:0]
	fill(e)
	return append([]byte(nil), e.buf...)
}

func helloBytes(t testing.TB, h hello, net *rete.Network) []byte {
	t.Helper()
	var e enc
	if err := encodeHello(&e, h, net); err != nil {
		t.Fatal(err)
	}
	return e.buf
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
		_, _, _, err := decodeBatch(net, &dec{b: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}, nil)
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
	for _, old := range []byte{2, 3} {
		t.Run(fmt.Sprintf("hello-version-%d", old), func(t *testing.T) {
			// A version-2 peer hashes numbers into other buckets; a
			// version-3 peer spells every wme out and knows no references.
			// Either must be turned away at the handshake, not mis-join
			// or mis-decode later.
			net, _ := mustCompile("blocks")
			hb := helloBytes(t, hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, net)
			if _, err := decodeHello(hb); err != nil {
				t.Fatalf("current hello refused: %v", err)
			}
			if protoVersion != 4 || hb[0] != protoVersion {
				t.Fatalf("hello leads with %#x, want the version varint 4 (protoVersion %d)", hb[0], protoVersion)
			}
			hb[0] = old
			_, err := decodeHello(hb)
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("version %d hello: got %v, want ErrBadPayload", old, err)
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", old)) || !strings.Contains(msg, "want 4") {
				t.Fatalf("error %q does not name both versions", msg)
			}
		})
	}
	t.Run("trailing-bytes", func(t *testing.T) {
		net, changes := mustCompile("blocks")
		ms := []parallel.Message{{Kind: parallel.MsgCycle, Cycle: &parallel.CyclePacket{Changes: changes}}}
		var e enc
		if err := appendBatch(&e, ms, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := decodeBatch(net, &dec{b: append(e.buf, 0xab)}, nil); !errors.Is(err, ErrBadPayload) {
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
		e.raw(payload)
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
	e := enc{cache: new(wmeCache)}
	if err := appendBatch(&e, ms, 7, 3); err != nil {
		t.Fatal(err)
	}
	if e.cache.defs != int64(len(changes)) || e.cache.refs != 2 {
		t.Fatalf("encoded %d definitions and %d references, want %d and 2", e.cache.defs, e.cache.refs, len(changes))
	}
	got, batch, src, err := decodeBatch(net, &dec{b: e.buf, cache: new(wmeCache)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batch != 7 || src != 3 || len(got) != len(ms) {
		t.Fatalf("batch=%d src=%d len=%d", batch, src, len(got))
	}
	if del, def := got[1].Cycle.Changes[1].WME, got[0].Cycle.Changes[2].WME; del != def {
		t.Fatalf("reference decoded to %p, its definition to %p: want the one cached copy", del, def)
	}
	e2 := enc{cache: new(wmeCache)}
	if err := appendBatch(&e2, got, 7, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.buf, e2.buf) {
		t.Fatal("re-encoded batch differs: codec is not canonical")
	}
	// Without a cache the same batch is all definitions, and a decoder
	// without one refuses the cached encoding's references.
	var plain enc
	if err := appendBatch(&plain, ms, 7, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodeBatch(net, &dec{b: plain.buf}, nil); err != nil {
		t.Fatalf("uncached batch: %v", err)
	}
	if _, _, _, err := decodeBatch(net, &dec{b: e.buf}, nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("references decoded without a cache: err=%v", err)
	}
}

// fuzzBatchFrames is the committed seed's shape: two ftBatch frames
// from one encoder, the second referring to wmes the first defined.
func fuzzBatchFrames(changes []rete.Change) []byte {
	e := enc{cache: new(wmeCache)}
	for _, chs := range [][]rete.Change{
		changes,
		{{Tag: rete.Delete, WME: changes[1].WME}, {Tag: rete.Delete, WME: changes[0].WME}},
	} {
		e.begin()
		if err := appendBatch(&e, []parallel.Message{{Kind: parallel.MsgCycle, Cycle: &parallel.CyclePacket{Changes: chs}}}, 1, 0); err != nil {
			panic(err)
		}
		if err := e.end(ftBatch); err != nil {
			panic(err)
		}
	}
	return e.buf
}

// FuzzTransportFrame fuzzes the frame reader and the payload codecs
// over a stream of frames decoded through one connection's state, so a
// reference in a later frame meets the definitions of the earlier
// ones: no input may panic or over-read, and any run of batches that
// decodes must re-encode canonically (decode∘encode is a fixed point).
func FuzzTransportFrame(f *testing.F) {
	net, changes := mustCompile("blocks")
	f.Add(fuzzBatchFrames(changes))
	{
		var b bytes.Buffer
		writeFrame(&b, ftHello, helloBytes(f, hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, net))
		f.Add(b.Bytes())
	}
	f.Add([]byte{0, 0, 0, 1, byte(ftShutdown)})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The topology bounds decoded bucket and worker indices are held
		// to, and the stream's receive cache.
		d := dec{nbuckets: rete.DefaultNBuckets, workers: 2, cache: new(wmeCache)}
		var batches [][]parallel.Message
		var stamps [][2]int32
		fr := frameReader{r: bytes.NewReader(data)}
		for {
			ft, payload, err := fr.next()
			if err != nil {
				break
			}
			d.reset(payload)
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
					d.i32() // batch
					d.i32() // src
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
		e1, e2 := enc{cache: new(wmeCache)}, enc{cache: new(wmeCache)}
		d2 := dec{nbuckets: d.nbuckets, workers: d.workers, cache: new(wmeCache)}
		for i, ms := range batches {
			batch, src := stamps[i][0], stamps[i][1]
			buf := payloadOf(&e1, func(e *enc) {
				if err := appendBatch(e, ms, batch, src); err != nil {
					t.Fatalf("decoded batch failed to re-encode: %v", err)
				}
			})
			d2.reset(buf)
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
