package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
)

// Loopback is the star carrier run inside one process: a
// parallel.Transport whose Open starts a Control on an ephemeral
// 127.0.0.1 listener and Workers ServeConn loops on goroutines, each
// over its own TCP connection — the frames, codec, relay hop and
// handshake that ops5run -transport tcp and ops5worker speak between
// processes. It is how the difftest oracle, obsreport -transport tcp
// and the benchmark's loopback side pass hold the star against the
// in-process mailboxes. Its workers compile the program from their
// hello once per process per program and share that network; the
// control prints the program once per network (Control.program), so a
// Loopback opened again over the same network does neither again.
type Loopback struct {
	net *rete.Network
}

// NewLoopback returns a Loopback for the given compiled network; its
// workers compile it from their hello, as worker processes do, once per
// process per program (decodeHello).
func NewLoopback(network *rete.Network) *Loopback {
	return &Loopback{net: network}
}

// Open implements parallel.Transport. A worker loop that fails fails
// the driver with its own error before its connection closes, so the
// run's sticky Err is the worker's failure, not the control's EOF on
// that connection. The stop function closes the control, waits for the
// worker loops and records any later errors of theirs; it may be called
// more than once.
func (l *Loopback) Open(opts parallel.Options) (*parallel.Driver, func(), error) {
	ctl, stop, err := l.open(opts)
	if err != nil {
		return nil, nil, err
	}
	return ctl.Driver, stop, nil
}

// open is Open with the Control in hand.
func (l *Loopback) open(opts parallel.Options) (*Control, func(), error) {
	ctl, err := listen(l.net, "127.0.0.1:0", opts, 0)
	if err != nil {
		return nil, nil, err
	}
	served := make(chan error, ctl.opts.Workers)
	for range ctl.opts.Workers {
		// One dial each: the listener is already up.
		go func() { served <- serveLoop(ctl) }()
	}
	stop := sync.OnceFunc(func() {
		ctl.Close()
		errs := make([]error, ctl.opts.Workers)
		for i := range errs {
			errs[i] = <-served
		}
		if err := errors.Join(errs...); err != nil {
			ctl.Fail(err)
		}
	})
	if err := ctl.WaitWorkers(); err != nil {
		stop()
		return nil, nil, err
	}
	return ctl, stop, nil
}

// serveLoop dials ctl and runs one worker loop on the connection. A
// worker's error goes to the driver while its connection is still
// open: the control's reader sees the connection end only after, and
// Driver.Fail keeps the first error.
func serveLoop(ctl *Control) error {
	conn, err := net.DialTimeout("tcp", ctl.Addr(), time.Second)
	if err != nil {
		return fmt.Errorf("transport: dialing control at %s: %w", ctl.Addr(), err)
	}
	defer conn.Close()
	err = serveConn(conn)
	if err != nil {
		ctl.Fail(err)
	}
	return err
}
