package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
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
		ft, got, err := readFrame(bytes.NewReader(good), nil)
		if err != nil || ft != ftBatch || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: ft=%v payload=%v err=%v", ft, got, err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		_, _, err := readFrame(bytes.NewReader(good[:3]), nil)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		_, _, err := readFrame(bytes.NewReader(good[:len(good)-2]), nil)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		hdr := make([]byte, 5)
		binary.BigEndian.PutUint32(hdr, MaxFrame+1)
		hdr[4] = byte(ftBatch)
		_, _, err := readFrame(bytes.NewReader(hdr), nil)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("zero-length", func(t *testing.T) {
		hdr := make([]byte, 4)
		_, _, err := readFrame(bytes.NewReader(hdr), nil)
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("got %v, want ErrBadPayload", err)
		}
	})
	t.Run("unknown-type", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 0x7f
		_, _, err := readFrame(bytes.NewReader(bad), nil)
		if !errors.Is(err, ErrUnknownFrameType) {
			t.Fatalf("got %v, want ErrUnknownFrameType", err)
		}
	})
	t.Run("garbage-batch-payload", func(t *testing.T) {
		net, _ := mustCompile("blocks")
		_, _, _, err := decodeBatch(net, dec{b: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}, nil)
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
	t.Run("hello-version-2", func(t *testing.T) {
		// A peer built before the HashKey change computes other buckets
		// for the same activations: it must be turned away at the
		// handshake, not mis-join later.
		net, _ := mustCompile("blocks")
		hb, err := encodeHello(nil, hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, net)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeHello(hb); err != nil {
			t.Fatalf("current hello refused: %v", err)
		}
		if hb[0] != protoVersion {
			t.Fatalf("hello leads with %#x, want the version varint %d", hb[0], protoVersion)
		}
		hb[0] = 2
		_, err = decodeHello(hb)
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("version 2 hello: got %v, want ErrBadPayload", err)
		}
		if msg := err.Error(); !strings.Contains(msg, "version 2") || !strings.Contains(msg, "want 3") {
			t.Fatalf("error %q does not name both versions", msg)
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		net, changes := mustCompile("blocks")
		ms := []parallel.Message{{Kind: parallel.MsgCycle, Cycle: &parallel.CyclePacket{Changes: changes}}}
		buf, err := appendBatch(nil, ms, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := decodeBatch(net, dec{b: append(buf, 0xab)}, nil); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("got %v, want ErrBadPayload for trailing bytes", err)
		}
	})
}

// TestBatchRoundTrip re-encodes a decoded batch and requires
// byte-identical output: the codec is canonical, which is what lets
// the CI smoke test assert conflict-set byte parity across processes.
func TestBatchRoundTrip(t *testing.T) {
	net, changes := mustCompile("blocks")
	ms := []parallel.Message{
		{Kind: parallel.MsgCycle, Cycle: &parallel.CyclePacket{Changes: changes}},
	}
	buf, err := appendBatch(nil, ms, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, batch, src, err := decodeBatch(net, dec{b: buf}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batch != 7 || src != 3 || len(got) != len(ms) {
		t.Fatalf("batch=%d src=%d len=%d", batch, src, len(got))
	}
	buf2, err := appendBatch(nil, got, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("re-encoded batch differs: codec is not canonical")
	}
}

// FuzzTransportFrame fuzzes the frame reader and batch codec: no
// input may panic or over-read, and any payload that decodes must
// re-encode canonically (decode∘encode is a fixed point).
func FuzzTransportFrame(f *testing.F) {
	net, changes := mustCompile("blocks")
	seed := []parallel.Message{
		{Kind: parallel.MsgCycle, Cycle: &parallel.CyclePacket{Changes: changes}},
	}
	if buf, err := appendBatch(nil, seed, 1, 0); err == nil {
		var b bytes.Buffer
		writeFrame(&b, ftBatch, buf)
		f.Add(b.Bytes())
	}
	if hb, err := encodeHello(nil, hello{
		workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1},
	}, net); err == nil {
		var b bytes.Buffer
		writeFrame(&b, ftHello, hb)
		f.Add(b.Bytes())
	}
	f.Add([]byte{0, 0, 0, 1, byte(ftShutdown)})
	// The topology bounds decoded bucket and worker indices are held to.
	dims := dec{nbuckets: rete.DefaultNBuckets, workers: 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		switch ft {
		case ftBatch:
			// Adversarial payloads may use non-minimal varints, so the
			// raw input need not re-encode byte-identically. The
			// canonical property is that ENCODER output is a fixed
			// point: decode, re-encode, decode, re-encode — the two
			// encoder outputs must match exactly.
			d := dims
			d.b = payload
			ms, batch, src, err := decodeBatch(net, d, nil)
			if err != nil {
				return
			}
			buf, err := appendBatch(nil, ms, batch, src)
			if err != nil {
				t.Fatalf("decoded batch failed to re-encode: %v", err)
			}
			d.b = buf
			ms2, b2, s2, err := decodeBatch(net, d, nil)
			if err != nil {
				t.Fatalf("re-encoded batch failed to decode: %v", err)
			}
			buf2, err := appendBatch(nil, ms2, b2, s2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if b2 != batch || s2 != src || !bytes.Equal(buf, buf2) {
				t.Fatalf("encoder output is not a fixed point:\n 1: %x\n 2: %x", buf, buf2)
			}
		case ftHello:
			decodeHello(payload)
		case ftActs, ftRelay:
			d := dims
			d.b = payload
			if ft == ftRelay {
				d.worker() // destination
			} else {
				d.i32() // batch
				d.i32() // src
			}
			d.actList(net, nil)
		}
	})
}
