package parallel

import "mpcrete/internal/obs"

// Transport abstracts the runtime's message plane: who carries a
// Message from a sender to the worker that owns its bucket. The
// in-process double-buffer mailboxes (mailbox.go) are the reference
// implementation; internal/transport adds a TCP length-prefixed-frame
// implementation that ships the same protocol between OS processes.
//
// The contract a Transport must honor, because the runtime's
// correctness arguments are built on it:
//
//   - Per-sender FIFO: messages from one sender to one destination are
//     delivered in send order (add-before-delete ordering of same-token
//     activations relies on this).
//   - Synchronous capture: Push/PushBatch must capture the message and
//     everything it references before returning — after Apply returns,
//     the runtime reuses the cycle packet and the caller may reuse the
//     changes slice, so a transport that defers serialization must copy
//     first.
//   - Termination accounting: the runtime registers work with the
//     termination detector before Push and deregisters it after the
//     batch is processed (Drain + handle). A transport must deliver
//     every accepted message exactly once, or report failure via
//     EndpointOptions.OnError — silently dropping an accepted message
//     leaves the credit counter permanently nonzero and Apply would
//     hang (see Runtime failure handling).
//   - Stamp fidelity: on stamped endpoints the (batch, src) pair given
//     to Push/PushBatch must come back from Drain attached to the same
//     contiguous run of messages, so causal flight records join
//     send->recv edges across the wire.
type Transport interface {
	// Open creates the per-worker endpoints. Endpoint i is worker i's
	// inbox: anyone may push to it; only worker i drains it.
	Open(workers int, opts EndpointOptions) ([]Endpoint, error)
	// Close releases transport-wide resources (listeners, connections).
	// Endpoints are closed individually by the runtime before this.
	Close() error
}

// EndpointOptions configure the endpoints a Transport opens.
type EndpointOptions struct {
	// NBuckets is the size of the hash-bucket space (0 means
	// rete.DefaultNBuckets, as everywhere). A wire transport
	// holds every decoded bucket index to it (and every worker index to
	// the count Open was given), so a corrupt frame is a transport error
	// rather than an out-of-range memory access in a worker.
	NBuckets int
	// Dropped counts post-close sends (the parallel.dropped_post_close
	// counter; nil is a no-op). Every implementation must drop-and-count
	// rather than block or panic when pushed after Close.
	Dropped *obs.Counter
	// Stamped enables recv-stamp recording (a causal recorder is
	// attached): Drain must return the (batch, src, count) provenance of
	// each contiguous delivered run.
	Stamped bool
	// OnError, when non-nil, is called (possibly concurrently, possibly
	// more than once) when the transport loses messages it accepted —
	// e.g. a connection broke after Push returned. The runtime uses it
	// to fail the termination detector so Apply surfaces an error
	// instead of hanging.
	OnError func(error)
}

// Endpoint is one worker's inbox. Push/PushBatch never block
// indefinitely on the consumer (the reference implementation is
// unbounded; a wire implementation must buffer on the receive side so
// two workers exchanging cross-product bursts cannot deadlock).
// Drain/TryDrain/Close follow the mailbox semantics documented in
// mailbox.go: drained buffers are donated back, pending messages are
// still delivered after Close, and ok == false means closed and empty.
type Endpoint interface {
	Push(m Message, batch, src int32)
	PushBatch(ms []Message, batch, src int32)
	Drain(buf []Message, sbuf []RecvStamp) (batch []Message, stamps []RecvStamp, ok bool)
	TryDrain(buf []Message, sbuf []RecvStamp) (batch []Message, stamps []RecvStamp, ok bool)
	Close()
}

// NewEndpoint returns one in-process double-buffer mailbox endpoint —
// the unit the reference transport is built from. Wire transports use
// it as their receive-side buffer: an unbounded local queue between
// the connection reader and the draining worker keeps socket
// backpressure from ever deadlocking two workers exchanging
// cross-product bursts.
func NewEndpoint(opts EndpointOptions) Endpoint {
	return newMailbox(opts.Dropped, opts.Stamped)
}

// inProcTransport is the reference Transport: each endpoint is an
// in-process double-buffer mailbox.
type inProcTransport struct{}

// InProc returns the in-process reference transport (the default when
// Options.Transport is nil).
func InProc() Transport { return inProcTransport{} }

func (inProcTransport) Open(workers int, opts EndpointOptions) ([]Endpoint, error) {
	eps := make([]Endpoint, workers)
	for i := range eps {
		eps[i] = newMailbox(opts.Dropped, opts.Stamped)
	}
	return eps, nil
}

func (inProcTransport) Close() error { return nil }
