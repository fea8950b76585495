package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/server"
	"mpcrete/internal/workloads"
)

// TestListenerTimeouts: the server newHTTPServer builds carries all four
// timeouts, and — with the header and idle timeouts
// shortened so the test does not take minutes — a connection that sends
// half a request line and a kept-alive connection left idle are each
// closed by the server inside their timeout, leaving no goroutine
// behind.
func TestListenerTimeouts(t *testing.T) {
	named, err := workloads.Named("counter")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ops5.ParseProgram(named.Program)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Compiled: compiled, Workload: named})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	hs := newHTTPServer("127.0.0.1:0", srv.Handler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout < hs.ReadHeaderTimeout || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts header %v, read %v, write %v, idle %v: want all four set, the head's no longer than the request's",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	const headerTimeout, idleTimeout, slack = 150 * time.Millisecond, 300 * time.Millisecond, 2 * time.Second
	hs.ReadHeaderTimeout, hs.IdleTimeout = headerTimeout, idleTimeout

	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	// closedWithin reads until the server closes the connection and
	// fails unless that happens between the timeout and the timeout
	// plus slack.
	closedWithin := func(what string, c net.Conn, r io.Reader, timeout time.Duration) {
		t.Helper()
		start := time.Now()
		c.SetReadDeadline(start.Add(timeout + slack))
		if _, err := io.Copy(io.Discard, r); err != nil {
			t.Errorf("%s: still open %v after the last byte (%v), want closed inside %v", what, time.Since(start), err, timeout)
		} else if d := time.Since(start); d < timeout/2 {
			t.Errorf("%s: closed after %v, before its %v timeout can have run", what, d, timeout)
		}
	}

	half, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	if _, err := io.WriteString(half, "GET /heal"); err != nil {
		t.Fatal(err)
	}
	closedWithin("half a request line", half, half, headerTimeout)

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: ops5d\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" || resp.Close {
		t.Fatalf("healthz over keep-alive: %d %q close=%v", resp.StatusCode, body, resp.Close)
	}
	closedWithin("an idle kept-alive connection", idle, br, idleTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), slack)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v", err)
	}
	srv.Drain()
	deadline := time.Now().Add(slack)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
