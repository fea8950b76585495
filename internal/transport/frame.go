// Package transport carries internal/parallel's messages over TCP:
// length-prefixed frames with coalesced per-batch payloads, the wire
// realization of the paper's message-passing machine. The mapping
// itself — the cycle, routing, termination accounting, the
// conflict-set intake, migration, and what a worker turn computes — is
// parallel.Driver and parallel.Step; nothing here decides bucket
// ownership or plans moves. There is one carrier, a star of worker
// connections: the driver in the control process (Control, control.go),
// one step per worker (ServeConn, worker.go), a handshake that ships
// the program for each worker to compile, per-batch framing, and relay
// forwarding of worker-to-worker messages; every relay and turn frame is
// reported to the driver's accounting calls, so termination detection
// stays exact across the wire. ops5run -transport tcp and ops5worker run it across OS
// processes; Loopback (loopback.go) runs it inside one, behind
// parallel.Options.Transport.
//
// The frame format is the QCDSP-style minimum: a 4-byte big-endian
// length, a 1-byte frame type, and a varint-encoded payload. The
// length covers the type byte, so a frame occupies 4+length bytes on
// the wire and a reader can skip unknown payloads without decoding
// them. A frame is built in place behind its reserved header and
// leaves in one Write; a worker's whole turn — its relays and the
// closing turn frame — leaves in one. codec.go has the payloads' wme
// contract and the reservation rule: a buffer a frame fills is sized
// once from the count the frame declares, held to what the frame's
// bytes could encode, and an encoder or reader starts at the size of a
// typical frame (readAhead), so neither end regrows a buffer by
// doubling on every connection.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mpcrete/internal/wire"
)

// MaxFrame bounds a frame's length field (type byte + payload). A
// cycle's coalesced changes and a worker's relayed activation batches
// stay far below this; anything larger is a corrupt or hostile stream.
const MaxFrame = 16 << 20

// frameHeader is the bytes ahead of a payload: length, then type.
const frameHeader = 5

// frameType tags a frame's payload.
type frameType uint8

const (
	// ftHello is the control→worker handshake: protocol version,
	// topology (worker id, worker count, nbuckets, partition, flags),
	// and the program: the network's variant and each production's
	// source text.
	ftHello frameType = iota + 1
	// ftReady is the worker→control handshake reply: the worker's id and
	// the digest of the network it compiled.
	ftReady
	// 3 is reserved: it was ftBatch, the frame of a retired in-process
	// carrier, and every later frame keeps its byte. frameReader refuses
	// it as an unknown type.
	_
	// The four control→worker delivery frames carry one kind of
	// parallel.Message each (Control.Deliver) behind the same causal
	// stamp, the batch id and the source track.
	//
	// ftCycle is the broadcast of one match phase's wme changes (Fig
	// 3-3).
	ftCycle
	// ftActs is a batch of routed activations: Fig 3-2 roots, a
	// hand-off's share, or worker-to-worker sends relayed through the
	// control process.
	ftActs
	// ftRelay is a worker→control batch of activations destined for
	// another worker; the control process forwards it as ftActs.
	ftRelay
	// ftTurn ends a worker's turn: how many messages it fully
	// processed, its activation count, the conflict-set deltas it
	// produced, its per-bucket activation counts (when load tracking is
	// on), and its own record of the turn (when the control records).
	ftTurn
	// ftShutdown asks a worker to exit cleanly.
	ftShutdown
	// ftRepart is the migration order: the new partition plus the
	// buckets this worker must extract and ship (a delivery frame).
	// Sent to every worker at a quiescent cycle boundary — routing
	// switches everywhere before the next cycle's delivery.
	ftRepart
	// ftBucketRelay is a worker→control shipment of one extracted
	// bucket pair: destination worker, then the contents, which the
	// control process decodes and forwards as ftBucket like any relay.
	ftBucketRelay
	// ftBucket is the delivery of one migrated bucket pair; the receiver
	// injects it and closes the turn.
	ftBucket
)

var frameTypeNames = [...]string{
	ftHello: "hello", ftReady: "ready", ftCycle: "cycle",
	ftActs: "acts", ftRelay: "relay", ftTurn: "turn", ftShutdown: "shutdown",
	ftRepart: "repart", ftBucketRelay: "bucket-relay", ftBucket: "bucket",
}

// known reports whether t is a frame type the protocol has: a name in
// frameTypeNames (0 and the reserved 3 have none).
func (t frameType) known() bool { return int(t) < len(frameTypeNames) && frameTypeNames[t] != "" }

func (t frameType) String() string {
	if t.known() {
		return frameTypeNames[t]
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Typed frame errors. Fault tests assert on these with errors.Is; a
// worker returns them from ServeConn, the control from Cycle, rather
// than hanging.
var (
	// ErrFrameTooLarge reports a length field exceeding MaxFrame (or a
	// payload too large to encode).
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrTruncated reports a stream that ended mid-frame.
	ErrTruncated = errors.New("transport: truncated frame")
	// ErrUnknownFrameType reports an unrecognized frame type byte.
	ErrUnknownFrameType = errors.New("transport: unknown frame type")
	// ErrBadPayload reports a payload that fails to decode: the codec's
	// one sentinel, which a hello whose program does not compile, and a
	// ready frame whose digest is not the control's, wrap as any other
	// payload does.
	ErrBadPayload = wire.ErrBadPayload
)

// A frame is written in place: begin reserves the header at the end of
// the encoder's buffer, the payload is appended behind it, end fills
// the header in, and flush hands every closed frame to the connection
// in one Write.

// begin opens a frame at the end of the buffer, reserving its header.
// An encoder's first frame reserves readAhead bytes, as a reader's
// first read does, so a connection's buffer takes its working size at
// once instead of doubling up to it from a header.
func (e *enc) begin() {
	if e.Buf == nil {
		e.Buf = make([]byte, 0, readAhead)
	}
	e.start = len(e.Buf)
	e.Buf = append(e.Buf, make([]byte, frameHeader)...)
}

// end closes the open frame by filling in its header, or reports the
// encoder's sticky error (enc.wme).
func (e *enc) end(ft frameType) error {
	if e.err != nil {
		return e.err
	}
	n := len(e.Buf) - e.start - 4 // type byte + payload
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(e.Buf[e.start:], uint32(n))
	e.Buf[e.start+4] = byte(ft)
	return nil
}

// flush writes the closed frames with one Write and empties the
// buffer. The caller serializes concurrent writers (the per-connection
// write mutex in control.go).
func (e *enc) flush(w io.Writer) error {
	_, err := w.Write(e.Buf)
	e.Buf = e.Buf[:0]
	return err
}

// frameReader reads frames off one connection. It reads ahead from
// the connection straight into a buffer of its own and parses frames
// out of it: buf[off:end] is what it has received and not yet handed
// out. A frame that does not fit doubles the buffer, so a read
// allocates nothing once the buffer holds the stream's largest frame,
// and a stream of ever larger frames grows it O(log n) times.
type frameReader struct {
	r        io.Reader
	buf      []byte
	off, end int
}

// readAhead is the size of a reader's first buffer and of an
// encoder's (enc.begin). On 8-queens every frame but the load cycle's
// fits, and so does every worker's write, a turn's relays and turn
// frame together (bytes, 2 workers, header included):
//
//	frames          n      p50   p99   max
//	hello           2    2,416       2,416
//	cycle       4,066       28    62  12,526 (the load: 571 changes)
//	acts        1,747       69   374     418
//	worker write 5,815      29   386     525
const readAhead = 4 << 10

// next reads one frame. The payload aliases the reader's buffer and is
// valid until the following call. A clean EOF before any header byte
// returns io.EOF; an EOF anywhere inside a frame returns ErrTruncated.
// An oversized length field or an unknown type byte returns the
// matching typed error before the payload is read.
func (fr *frameReader) next() (frameType, []byte, error) {
	if err := fr.fill(4); err != nil {
		if err == io.EOF && fr.off == fr.end {
			return 0, nil, io.EOF
		}
		return 0, nil, truncated("length", err)
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.off:])
	if n < 1 {
		return 0, nil, fmt.Errorf("%w: zero-length frame", ErrBadPayload)
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: length field %d", ErrFrameTooLarge, n)
	}
	if err := fr.fill(frameHeader); err != nil {
		return 0, nil, truncated("type", err)
	}
	ft := frameType(fr.buf[fr.off+4])
	if !ft.known() {
		return 0, nil, fmt.Errorf("%w: %d", ErrUnknownFrameType, uint8(ft))
	}
	size := 4 + int(n)
	if err := fr.fill(size); err != nil {
		return 0, nil, truncated(fmt.Sprintf("%s payload (%d bytes)", ft, size-frameHeader), err)
	}
	payload := fr.buf[fr.off+frameHeader : fr.off+size : fr.off+size]
	fr.off += size
	return ft, payload, nil
}

// fill reads until at least n unparsed bytes are buffered, taking in
// as much as one Read gives and the buffer holds. Before it reads, the
// unparsed bytes move to the front of the buffer, or of a new one twice
// as large (or as large as n) when n does not fit.
func (fr *frameReader) fill(n int) error {
	if fr.end-fr.off >= n {
		return nil
	}
	if buf := fr.buf; fr.off > 0 || len(buf) < n {
		if len(buf) < n {
			buf = make([]byte, max(2*len(buf), n, readAhead))
		}
		fr.end = copy(buf, fr.buf[fr.off:fr.end])
		fr.buf, fr.off = buf, 0
	}
	for fr.end < n {
		k, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += k
		if err != nil && fr.end < n {
			return err
		}
	}
	return nil
}

// truncated is the error of a stream that ended, or failed, inside a
// frame, while reading what.
func truncated(what string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: reading %s: %v", ErrTruncated, what, err)
}
