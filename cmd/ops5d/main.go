// Command ops5d is the multi-tenant OPS5 rule-engine server: it
// compiles one production-system program at startup and serves
// thousands of independent working-memory sessions over HTTP/JSON, all
// sharing the compiled Rete network read-only. See internal/server for
// the wire protocol.
//
// Usage:
//
//	ops5d -workload blocks                 serve a built-in workload
//	ops5d -program rules.ops5              serve an OPS5 source file
//	ops5d -addr :8080 -debug-addr :6060    API and pprof/expvar listeners
//	ops5d -max-sessions 4096 -queue 256    capacity limits
//
// SIGTERM/SIGINT drain gracefully: admission stops (503), in-flight
// requests finish, sessions close, then the listener shuts down.
//
// The listener never waits for ever: a request head must arrive within
// 5 s, a whole request within 30 s, a reply must be written within 60 s
// of the head, and an idle kept-alive connection is closed after 2
// minutes (see newHTTPServer). Request bodies are capped at 1 MiB by
// internal/server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpcrete/internal/engine"
	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/server"
	"mpcrete/internal/workloads"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "API listen address")
		debugAddr   = flag.String("debug-addr", "", "pprof/expvar listen address (empty = disabled)")
		programPath = flag.String("program", "", "OPS5 program file to serve")
		workload    = flag.String("workload", "", fmt.Sprintf("built-in workload to serve %v", workloads.NamedNames()))
		maxSessions = flag.Int("max-sessions", 4096, "maximum live sessions")
		maxInflight = flag.Int("inflight", 0, "concurrent request slots (0 = 2*GOMAXPROCS)")
		queueDepth  = flag.Int("queue", 256, "waiting requests beyond inflight before 429")
		maxCycles   = flag.Int("max-cycles", 1000, "default per-run cycle budget")
		variant     = flag.String("variant", "shared", "network variant: "+strings.Join(rete.Variants(), ", "))
	)
	flag.Parse()

	if err := run(*addr, *debugAddr, *programPath, *workload, *variant, *maxSessions, *maxInflight, *queueDepth, *maxCycles); err != nil {
		fmt.Fprintln(os.Stderr, "ops5d:", err)
		os.Exit(1)
	}
}

// The listener's four timeouts. They are constants, not flags: they
// bound how long a connection may hold a goroutine and a descriptor
// while nothing useful happens, and no deployment of this server needs
// that to be longer.
const (
	// readHeaderTimeout bounds a connection that has sent part of a
	// request head, or nothing at all after connecting.
	readHeaderTimeout = 5 * time.Second
	// readTimeout bounds a whole request, body included: internal/server
	// caps a body at 1 MiB, which a 56 kB/s link delivers in 19 s.
	readTimeout = 30 * time.Second
	// writeTimeout runs from the end of the request head to the end of
	// the reply, so it holds the wait for an admission slot, the handler
	// and the write. It has to clear a run of -max-cycles on the slowest
	// bundled workload: measured through the handler on the 2-vCPU
	// development box, the default budget of 1000 cycles is at most
	// 3.3 ms (queens, 441 firings to its halt; every other workload
	// under 1.2 ms), and the 8-queens board the benchmark runs fires
	// 1000 times in 3.4 ms. A minute clears that
	// four orders of magnitude over. It does not stop a run that
	// outlives it: the reply is lost and the cycles still execute, which
	// is the per-request deadline the ROADMAP still lists.
	writeTimeout = 60 * time.Second
	// idleTimeout closes a kept-alive connection no request arrives on.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer is the API listener: the handler behind the four
// timeouts.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(addr, debugAddr, programPath, workload, variant string, maxSessions, maxInflight, queueDepth, maxCycles int) error {
	var named workloads.NamedProgram
	switch {
	case programPath != "" && workload != "":
		return errors.New("-program and -workload are mutually exclusive")
	case programPath != "":
		src, err := os.ReadFile(programPath)
		if err != nil {
			return err
		}
		named = workloads.NamedProgram{Name: programPath, Program: string(src)}
	case workload != "":
		var err error
		named, err = workloads.Named(workload)
		if err != nil {
			return err
		}
	default:
		return errors.New("one of -program or -workload is required")
	}

	prog, err := ops5.ParseProgram(named.Program)
	if err != nil {
		return fmt.Errorf("parse %s: %w", named.Name, err)
	}
	compiled, err := engine.Compile(prog, engine.CompileOptions{Variant: variant})
	if err != nil {
		return fmt.Errorf("compile %s: %w", named.Name, err)
	}

	metrics := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Compiled:         compiled,
		Workload:         named,
		MaxSessions:      maxSessions,
		MaxInflight:      maxInflight,
		QueueDepth:       queueDepth,
		DefaultMaxCycles: maxCycles,
		Metrics:          metrics,
	})
	if err != nil {
		return err
	}

	if debugAddr != "" {
		dbg, stop, err := obs.ServeDebug(debugAddr, map[string]func() any{
			"metrics": metrics.SnapshotVar(),
		})
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer stop()
		log.Printf("ops5d: debug server on http://%s/debug/pprof/", dbg)
	}

	hs := newHTTPServer(addr, srv.Handler())
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("ops5d: serving %s (%d productions) on http://%s", named.Name, len(prog.Productions), addr)
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("ops5d: draining")
	srv.Drain()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("ops5d: drained cleanly")
	return nil
}
