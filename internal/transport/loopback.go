package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
)

// Loopback is a parallel.Transport that carries every mailbox message
// over a real localhost TCP connection: each endpoint owns a
// writer/reader connection pair through one 127.0.0.1 listener, with
// every Push serialized into an ftBatch frame and a per-endpoint
// reader goroutine decoding frames into an in-process receive buffer
// (parallel.NewEndpoint) the worker drains as usual.
//
// Sends are encoded synchronously under the endpoint's write mutex, so
// the transport honors the capture contract (the runtime may reuse the
// cycle packet the moment Push returns) and preserves per-sender FIFO
// order (TCP keeps frame order; the mutex keeps frames whole). The
// receive buffer is unbounded, so socket backpressure can never
// deadlock two workers exchanging cross-product bursts: the reader
// goroutine always drains the socket.
//
// The batch codec serializes migration messages (bucket moves and
// extracted bucket contents) like any other kind, so Repartition and
// the online rebalancer work over Loopback — the receiver injects fresh
// value copies, which is safe because memory removal matches by value.
//
// Each endpoint's connection has the star's wme cache at both ends
// (send under the write mutex, receive in the reader goroutine), so a
// wme crosses into a worker's inbox by value once and by reference
// afterwards, whichever worker sent it.
//
// The point of Loopback is validation, not deployment: it runs the
// exact wire codec and framing of the multi-process runtime inside one
// process, where the difftest oracle can hold it against the
// sequential engine and the in-process transport, cycle by cycle.
type Loopback struct {
	net *rete.Network

	mu  sync.Mutex
	lns []net.Listener
	eps []*loopEndpoint
}

// NewLoopback creates a loopback TCP transport decoding against the
// given compiled network (the decoder resolves node ids and production
// names into it).
func NewLoopback(network *rete.Network) *Loopback {
	return &Loopback{net: network}
}

// Open implements parallel.Transport.
func (l *Loopback) Open(workers int, opts parallel.EndpointOptions) ([]parallel.Endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: loopback listen: %w", err)
	}
	l.mu.Lock()
	l.lns = append(l.lns, ln)
	l.mu.Unlock()

	if opts.NBuckets == 0 {
		opts.NBuckets = rete.DefaultNBuckets
	}
	eps := make([]parallel.Endpoint, workers)
	for i := 0; i < workers; i++ {
		// Sequential dial-then-accept pairs the connections
		// deterministically.
		wc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("transport: loopback dial: %w", err)
		}
		rc, err := ln.Accept()
		if err != nil {
			wc.Close()
			l.Close()
			return nil, fmt.Errorf("transport: loopback accept: %w", err)
		}
		ep := &loopEndpoint{
			net:   l.net,
			dec:   dec{nbuckets: opts.NBuckets, workers: workers, cache: new(wmeCache), layouts: l.net.Layouts()},
			wconn: wc,
			rconn: rc,
			inner: parallel.NewEndpoint(opts),
			opts:  opts,
			enc:   enc{cache: new(wmeCache), layouts: l.net.Layouts()},
		}
		go ep.readLoop()
		l.mu.Lock()
		l.eps = append(l.eps, ep)
		l.mu.Unlock()
		eps[i] = ep
	}
	return eps, nil
}

// Close implements parallel.Transport: it tears down the listener and
// any connections still open.
func (l *Loopback) Close() error {
	l.mu.Lock()
	lns, eps := l.lns, l.eps
	l.lns, l.eps = nil, nil
	l.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// loopEndpoint is one worker's inbox: writers frame messages onto
// wconn; the reader goroutine decodes rconn into inner.
type loopEndpoint struct {
	net *rete.Network
	// dec is the reader goroutine's decoder: the index bounds every
	// received frame's bucket and worker indices are held to, and the
	// connection's receive cache.
	dec   dec
	inner parallel.Endpoint
	opts  parallel.EndpointOptions
	rconn net.Conn

	mu     sync.Mutex // serializes writers; guards enc (and its send cache), closed
	wconn  net.Conn
	enc    enc
	closed bool
}

func (ep *loopEndpoint) Push(m parallel.Message, batch, src int32) {
	one := [1]parallel.Message{m}
	ep.push(one[:], batch, src, 1)
}

func (ep *loopEndpoint) PushBatch(ms []parallel.Message, batch, src int32) {
	if len(ms) == 0 {
		return
	}
	ep.push(ms, batch, src, int64(len(ms)))
}

func (ep *loopEndpoint) push(ms []parallel.Message, batch, src int32, n int64) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		ep.opts.Dropped.Add(n)
		return
	}
	e := &ep.enc
	e.begin()
	err := appendBatch(e, ms, batch, src)
	if err == nil {
		err = e.end(ftBatch)
	}
	if err != nil {
		e.Buf = e.Buf[:0]
		ep.fail(err)
		return
	}
	if err := e.flush(ep.wconn); err != nil {
		ep.fail(fmt.Errorf("transport: loopback send: %w", err))
	}
}

// fail reports a lost accepted message. Callers hold ep.mu or run on
// the reader goroutine; OnError must tolerate concurrent calls.
func (ep *loopEndpoint) fail(err error) {
	if ep.opts.OnError != nil {
		ep.opts.OnError(err)
	}
}

// readLoop delivers everything the socket holds into the unbounded
// inner buffer, then closes the inner endpoint so the draining worker
// sees closed-and-empty. A clean EOF (writer side closed) is the normal
// end; anything else lost accepted messages.
func (ep *loopEndpoint) readLoop() {
	err := ep.read()
	if err != io.EOF && !errors.Is(err, net.ErrClosed) && !ep.isClosed() {
		ep.fail(fmt.Errorf("transport: loopback recv: %w", err))
	}
	ep.inner.Close()
	ep.rconn.Close()
}

func (ep *loopEndpoint) read() error {
	fr := frameReader{r: ep.rconn}
	var ms []parallel.Message
	for {
		ft, payload, err := fr.next()
		if err != nil {
			return err
		}
		if ft != ftBatch {
			return fmt.Errorf("%w: unexpected %s frame on loopback", ErrBadPayload, ft)
		}
		ep.dec.Reset(payload)
		var batch, src int32
		if ms, batch, src, err = decodeBatch(ep.net, &ep.dec, ms); err != nil {
			return err
		}
		ep.inner.PushBatch(ms, batch, src)
	}
}

func (ep *loopEndpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

func (ep *loopEndpoint) Drain(buf []parallel.Message, sbuf []parallel.RecvStamp) ([]parallel.Message, []parallel.RecvStamp, bool) {
	return ep.inner.Drain(buf, sbuf)
}

func (ep *loopEndpoint) TryDrain(buf []parallel.Message, sbuf []parallel.RecvStamp) ([]parallel.Message, []parallel.RecvStamp, bool) {
	return ep.inner.TryDrain(buf, sbuf)
}

// Close stops accepting sends and closes the write side; frames
// already on the wire are still decoded and delivered before the
// reader closes the inner endpoint (TCP delivers buffered data ahead
// of the FIN), matching the mailbox's pending-after-close semantics.
func (ep *loopEndpoint) Close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	ep.mu.Unlock()
	ep.wconn.Close()
}
