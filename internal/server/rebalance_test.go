package server

import (
	"runtime"
	"testing"
	"time"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/sched"
)

// TestParallelRebalanceSessions serves sessions whose match phase runs
// on per-session parallel runtimes with the online adaptive
// rebalancer armed hair-trigger from an all-on-worker-0 assignment
// (Config.NewMatcher; ops5d itself serves on the sequential engine).
// Every session's snapshot must stay byte-identical to the sequential
// oracle, and closed sessions must release their worker goroutines
// rather than being shelved dirty.
func TestParallelRebalanceSessions(t *testing.T) {
	prog, err := ops5.ParseProgram(testProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	compiled, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	const runCycles = 2
	srv, _, client := newTestServer(t, Config{
		Compiled: compiled,
		NewMatcher: func() engine.MatchApplier {
			rt, err := parallel.New(compiled.Network(), parallel.Options{
				Workers:   2,
				NBuckets:  64,
				Partition: make(sched.Partition, 64),
				Rebalance: sched.Rebalance{Threshold: 1.01, MinInterval: 1},
			})
			if err != nil {
				panic(err)
			}
			return rt
		},
	})

	before := runtime.NumGoroutine()
	const sessions = 8
	ids := make([]string, sessions)
	for i := range ids {
		n := 1 + i%5
		id, err := client.Open(false, testWMEs(n))
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		ids[i] = id
		if _, err := client.Run(id, runCycles); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for i, id := range ids {
		n := 1 + i%5
		snap, err := client.Snapshot(id)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if got, want := renderWire(snap), referenceState(t, n, runCycles); got != want {
			t.Fatalf("session %d (n=%d) diverged:\nref:\n%s\ngot:\n%s", i, n, want, got)
		}
	}
	for _, id := range ids {
		if err := client.Close(id); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	if live := srv.sessions.live(); live != 0 {
		t.Fatalf("live sessions = %d after close, want 0", live)
	}
	// Parallel matchers cannot Reset, so nothing may sit in the pool
	// holding worker goroutines.
	if n := srv.sessions.pooled(); n != 0 {
		t.Fatalf("pool shelved %d parallel sessions; they must be closed instead", n)
	}
	// The per-session runtimes' workers must wind down after close.
	waitGoroutinesBelow(t, before+4)
}

func waitGoroutinesBelow(t *testing.T, max int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= max {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not wind down: %d live, want <= %d", runtime.NumGoroutine(), max)
}
