package transport

import (
	"net"
	"sync"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// TestEvictionParity runs a script whose live wmes alias cache slots —
// the k-th wme made has id 1 + k%4 + (k/4)*wmeCacheSlots, so dozens of
// live wmes share four slots and nearly every mention of a wme finds
// its slot taken by another — over the star in both root modes.
// Eviction must cost re-definitions and nothing else: every
// cycle's conflict set equals the sequential matcher's. The same script
// under dense ids is the control: it sends the same messages, so the
// aliased run shows eviction by defining more wmes than the dense one.
func TestEvictionParity(t *testing.T) {
	const (
		workers  = 3
		nbuckets = 64
	)
	// A carrier under test: cycle drives it, and sent closes it and
	// reports the definitions and references it put on the wire.
	type carrier struct {
		cycle func([]rete.Change) ([]rete.InstChange, error)
		sent  func() (defs, refs int64)
	}
	star := func(routed bool) func(t *testing.T) carrier {
		return func(t *testing.T) carrier {
			ctl, err := Listen(compileProdsT(t, migrationProds...), "127.0.0.1:0", ControlOptions{Workers: workers, NBuckets: nbuckets, RouteRoots: routed})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ctl.Close() })
			werrs := startWorkers(t, ctl.Addr(), workers)
			if err := ctl.WaitWorkers(); err != nil {
				t.Fatal(err)
			}
			return carrier{ctl.Cycle, func() (defs, refs int64) {
				if err := ctl.Close(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < workers; i++ {
					if err := <-werrs; err != nil {
						t.Fatalf("worker exit: %v", err)
					}
				}
				// Readers and workers have exited: the caches are quiet.
				for _, cc := range ctl.conns {
					defs += cc.enc.cache.defs + cc.dec.cache.defs
					refs += cc.enc.cache.refs + cc.dec.cache.refs
				}
				return defs, refs
			}}
		}
	}
	// run drives the script through a carrier and holds every cycle
	// against the sequential matcher.
	run := func(t *testing.T, c carrier, script [][]rete.Change) (defs, refs int64) {
		seq := rete.NewMatcher(compileProdsT(t, migrationProds...), rete.MatcherOptions{NBuckets: nbuckets})
		seqCS, gotCS := map[string]bool{}, map[string]bool{}
		for i, ch := range script {
			foldInsts(seqCS, seq.Apply(ch))
			insts, err := c.cycle(ch)
			if err != nil {
				t.Fatal(err)
			}
			foldInsts(gotCS, insts)
			if !sameSet(seqCS, gotCS) {
				t.Fatalf("divergence at step %d:\nseq: %v\ngot: %v", i, seqCS, gotCS)
			}
		}
		if len(seqCS) == 0 {
			t.Fatal("the script left an empty conflict set; vacuous test")
		}
		return c.sent()
	}
	dense := churnScript(120)
	aliased := churnScriptIDs(120, func(k int) int { return 1 + k%4 + (k/4)*wmeCacheSlots })
	for _, row := range []struct {
		name string
		open func(t *testing.T) carrier
	}{
		{"star/bcast", star(false)}, {"star/routed", star(true)},
	} {
		t.Run(row.name, func(t *testing.T) {
			denseDefs, denseRefs := run(t, row.open(t), dense)
			defs, refs := run(t, row.open(t), aliased)
			t.Logf("dense ids: %d definitions, %d references; aliased ids: %d definitions, %d references", denseDefs, denseRefs, defs, refs)
			if defs <= denseDefs || refs == 0 || defs+refs != denseDefs+denseRefs {
				t.Errorf("the aliased script did not turn references into re-definitions")
			}
		})
	}
}

// countConn counts the bytes crossing a worker's connection. Only the
// worker goroutine touches it until ServeConn returns.
type countConn struct {
	net.Conn
	read, written int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

// TestWireBytesPerFiring pins what the cache buys, in the one unit that
// repeats exactly: 8-queens from the canonical board, two workers,
// broadcast roots, every byte either direction counted at the workers'
// conns, handshake included. Shipping every wme of every token and
// delta by value this read 1,439 bytes per firing, 464.3 while a
// definition still spelled out its class and attribute names (50.1
// bytes each; a row of the layout is 33.9), and 412.6 while every delta
// of a turn frame shipped its sorted time tags beside the wmes they are
// read from, and 394.7 while each hello carried the compiled network (a
// 3,128-byte blob; the whole hello, program text included, is 1,389
// bytes now), and 393.0 while keys were folded byte by byte; it reads
// 392.9 under the word fold, which keeps that fold's bit 0 and so its
// W=2 deal (the activations' bucket numbers, varints, changed). The log
// line is the definition/reference split the wmeCacheSlots comment
// quotes.
func TestWireBytesPerFiring(t *testing.T) {
	const workers = 2
	prog, err := ops5.ParseProgram(workloads.Queens)
	if err != nil {
		t.Fatal(err)
	}
	board, err := ops5.ParseWMEs(workloads.QueensWMEs(8))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := Listen(compiled.Network(), "127.0.0.1:0", ControlOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	conns := make([]*countConn, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", ctl.Addr())
			if err != nil {
				errs[i] = err
				return
			}
			conns[i] = &countConn{Conn: c}
			errs[i] = ServeConn(conns[i])
		}()
	}
	if err := ctl.WaitWorkers(); err != nil {
		t.Fatal(err)
	}
	sess := compiled.NewSession(engine.SessionOptions{Matcher: ctl})
	sess.InsertWMEs(board...)
	fired, err := sess.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	var total int64
	for i, c := range conns {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		total += c.read + c.written
	}
	for _, cc := range ctl.conns {
		t.Logf("worker %d: control to worker %d definitions, %d references; worker to control %d definitions, %d references",
			cc.id, cc.enc.cache.defs, cc.enc.cache.refs, cc.dec.cache.defs, cc.dec.cache.refs)
	}
	perFiring := float64(total) / float64(fired)
	t.Logf("%d firings, %d wire bytes, %.1f bytes per firing", fired, total, perFiring)
	if fired != 2033 {
		t.Errorf("8-queens fired %d times, want 2033", fired)
	}
	if perFiring > 397 {
		t.Errorf("%.1f wire bytes per firing, want at most 397 (393.0 + 1%%): a change to HashKey's bit 0 re-deals W=2 ownership; "+
			"see the 32-salt tables in EXPERIMENTS.md, \"What a key costs, settled\"", perFiring)
	}
}
