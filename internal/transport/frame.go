// Package transport carries internal/parallel's messages over TCP:
// length-prefixed frames with coalesced per-batch payloads, the wire
// realization of the paper's message-passing machine. The mapping
// itself — the cycle, routing, termination accounting, netting,
// migration, and what a worker turn computes — is parallel.Driver and
// parallel.Step; nothing here decides bucket ownership, nets
// instantiations or plans moves. This package provides two carriers:
//
//   - Loopback: a parallel.Transport that ships every mailbox message
//     through a real localhost TCP connection pair per worker, used to
//     validate the wire codec and framing against the in-process
//     reference (difftest plugs it into the differential oracle).
//   - Control / ServeConn: a star of worker connections — the driver in
//     one process (control.go), one step per worker process
//     (worker.go) — with a compiled-network handshake, per-batch
//     framing, and relay forwarding of worker-to-worker activations;
//     every relay and turn frame is reported to the driver's accounting
//     calls, so termination detection stays exact across the wire.
//
// The frame format is the QCDSP-style minimum: a 4-byte big-endian
// length, a 1-byte frame type, and a varint-encoded payload. The
// length covers the type byte, so a frame occupies 4+length bytes on
// the wire and a reader can skip unknown payloads without decoding
// them.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds a frame's length field (type byte + payload). A
// cycle's coalesced changes and a worker's relayed activation batches
// stay far below this; anything larger is a corrupt or hostile stream.
const MaxFrame = 16 << 20

// frameType tags a frame's payload.
type frameType uint8

const (
	// ftHello is the control→worker handshake: protocol version,
	// topology (worker id, worker count, nbuckets, partition, flags),
	// and the compiled network (rete.EncodeNetwork bytes).
	ftHello frameType = iota + 1
	// ftReady is the worker→control handshake reply.
	ftReady
	// ftBatch is the Loopback transport's unit: one pushed message
	// batch with its causal stamp (batch, src).
	ftBatch
	// ftCycle is the control→worker broadcast of one match phase's wme
	// changes (Fig 3-3).
	ftCycle
	// ftActs is a control→worker batch of routed activations: Fig 3-2
	// roots, or worker-to-worker sends relayed through the control
	// process.
	ftActs
	// ftRelay is a worker→control batch of activations destined for
	// another worker; the control process forwards it as ftActs.
	ftRelay
	// ftTurn ends a worker's turn: how many messages it fully
	// processed, the recv stamps it drained, its per-turn measurement
	// aggregate, the conflict-set deltas it produced, and (when load
	// tracking is on) its per-bucket activation counts.
	ftTurn
	// ftShutdown asks a worker to exit cleanly.
	ftShutdown
	// ftRepart is the control→worker migration order: the new
	// partition plus the buckets this worker must extract and ship.
	// Sent to every worker at a quiescent cycle boundary — routing
	// switches everywhere before the next cycle's delivery.
	ftRepart
	// ftBucketRelay is a worker→control shipment of one extracted
	// bucket pair: destination worker, entry count, then the encoded
	// contents, which the control process forwards verbatim (without
	// decoding) as ftBucket.
	ftBucketRelay
	// ftBucket is the control→worker delivery of one migrated bucket
	// pair; the receiver injects it and closes the turn.
	ftBucket

	maxFrameType = ftBucket
)

var frameTypeNames = [...]string{
	ftHello: "hello", ftReady: "ready", ftBatch: "batch", ftCycle: "cycle",
	ftActs: "acts", ftRelay: "relay", ftTurn: "turn", ftShutdown: "shutdown",
	ftRepart: "repart", ftBucketRelay: "bucket-relay", ftBucket: "bucket",
}

func (t frameType) String() string {
	if int(t) < len(frameTypeNames) && frameTypeNames[t] != "" {
		return frameTypeNames[t]
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Typed frame errors. Fault tests assert on these with errors.Is; the
// runtime surfaces them through EndpointOptions.OnError or
// Control.Cycle rather than hanging.
var (
	// ErrFrameTooLarge reports a length field exceeding MaxFrame (or a
	// payload too large to encode).
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrTruncated reports a stream that ended mid-frame.
	ErrTruncated = errors.New("transport: truncated frame")
	// ErrUnknownFrameType reports an unrecognized frame type byte.
	ErrUnknownFrameType = errors.New("transport: unknown frame type")
	// ErrBadPayload reports a payload that fails to decode.
	ErrBadPayload = errors.New("transport: malformed payload")
)

// writeFrame writes one frame. The caller serializes concurrent writers
// (per-connection write mutexes in loopback.go / control.go).
func writeFrame(w io.Writer, ft frameType, payload []byte) error {
	n := 1 + len(payload)
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = byte(ft)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, reusing buf for the payload when it fits.
// A clean EOF before any header byte returns io.EOF; an EOF anywhere
// inside a frame returns ErrTruncated. An oversized length field or an
// unknown type byte returns the matching typed error without consuming
// the payload.
func readFrame(r io.Reader, buf []byte) (frameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading length: %v", ErrTruncated, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 {
		return 0, nil, fmt.Errorf("%w: zero-length frame", ErrBadPayload)
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: length field %d", ErrFrameTooLarge, n)
	}
	var tb [1]byte
	if _, err := io.ReadFull(r, tb[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: reading type: %v", ErrTruncated, err)
	}
	ft := frameType(tb[0])
	if ft < ftHello || ft > maxFrameType {
		return 0, nil, fmt.Errorf("%w: %d", ErrUnknownFrameType, tb[0])
	}
	plen := int(n) - 1
	if cap(buf) < plen {
		buf = make([]byte, plen)
	}
	buf = buf[:plen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: reading %s payload (%d bytes): %v", ErrTruncated, ft, plen, err)
	}
	return ft, buf, nil
}
