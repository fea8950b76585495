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

// TestRecycleParity runs a churning script — at most four wmes live,
// so the control's table hands every handle out again and again — over
// the star in both root modes. A recycled handle names a new wme with a
// new time tag, so the control defines it again before any worker may
// read it: every cycle's conflict set equals the sequential matcher's,
// every handle names at least 11 wmes in turn, and no worker ever sends
// a definition.
func TestRecycleParity(t *testing.T) {
	const (
		workers  = 3
		nbuckets = 64
	)
	script := churnScriptLive(400, 4)
	for _, routed := range []bool{false, true} {
		name := map[bool]string{false: "star/bcast", true: "star/routed"}[routed]
		t.Run(name, func(t *testing.T) {
			ctl, err := Listen(compileProdsT(t, migrationProds...), "127.0.0.1:0", ControlOptions{Workers: workers, NBuckets: nbuckets, RouteRoots: routed})
			if err != nil {
				t.Fatal(err)
			}
			defer ctl.Close()
			werrs := startWorkers(t, ctl.Addr(), workers)
			if err := ctl.WaitWorkers(); err != nil {
				t.Fatal(err)
			}
			seq := rete.NewMatcher(compileProdsT(t, migrationProds...), rete.MatcherOptions{NBuckets: nbuckets})
			seqCS, gotCS := map[string]bool{}, map[string]bool{}
			standing := 0                     // cycles that ended with instantiations standing
			named := map[int32]map[int]bool{} // handle -> the wme ids it has named
			for i, ch := range script {
				foldInsts(seqCS, seq.Apply(ch))
				insts, err := ctl.Cycle(ch)
				if err != nil {
					t.Fatal(err)
				}
				foldInsts(gotCS, insts)
				if !sameSet(seqCS, gotCS) {
					t.Fatalf("divergence at step %d:\nseq: %v\ngot: %v", i, seqCS, gotCS)
				}
				if len(seqCS) > 0 {
					standing++
				}
				// Quiescent: the table is the driver's to read.
				for h := int32(1); ctl.Table().WME(h) != nil; h++ {
					if w := ctl.Table().WME(h); w.ID > 0 {
						if named[h] == nil {
							named[h] = map[int]bool{}
						}
						named[h][w.ID] = true
					}
				}
			}
			if standing < len(script)/10 {
				t.Fatalf("instantiations stood after %d of %d cycles; vacuous test", standing, len(script))
			}
			if len(named) == 0 {
				t.Fatal("no handle was ever filled")
			}
			for h, ids := range named {
				if len(ids) < 11 {
					t.Errorf("handle %d named %d wmes, want at least 11 (reused 10 times)", h, len(ids))
				}
			}
			if err := ctl.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < workers; i++ {
				if err := <-werrs; err != nil {
					t.Fatalf("worker exit: %v", err)
				}
			}
			var defs, refs, back int64
			for _, cc := range ctl.conns {
				defs, refs, back = defs+cc.enc.defs, refs+cc.enc.refs, back+cc.dec.defs
			}
			t.Logf("%d handles over %d cycles: %d definitions, %d references to workers", len(named), len(script), defs, refs)
			if back != 0 {
				t.Errorf("workers sent %d definitions, want none", back)
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

// TestWireBytesPerFiring pins what naming wmes buys, in the one unit that
// repeats exactly: 8-queens from the canonical board, two workers,
// broadcast roots, every byte either direction counted at the workers'
// conns, handshake included. Shipping every wme of every token and
// delta by value this read 1,439 bytes per firing, 464.3 while a
// definition still spelled out its class and attribute names (50.1
// bytes each; a row of the layout is 33.9), and 412.6 while every delta
// of a turn frame shipped its sorted time tags beside the wmes they are
// read from, and 394.7 while each hello carried the compiled network (a
// 3,128-byte blob; the whole hello, program text included, is 1,389
// bytes now), and 393.0 while keys were folded byte by byte, and 392.9
// under the word fold, which keeps that fold's bit 0 and so its W=2
// deal, while each connection cached wmes by (ID, TimeTag) and a worker
// defined back to the control the wmes the control had defined to it
// (2,422 of 6,544 definitions), and 365.3 with wmes named by the
// control's handles, which workers only reference, while every turn
// frame echoed its recv stamp, its flush count and its deepest
// activation for a recorder that was off. It reads 348.2 with a turn
// frame that carries a record only under a recorder. The log line is
// the definition/reference split per connection.
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
			cc.id, cc.enc.defs, cc.enc.refs, cc.dec.defs, cc.dec.refs)
	}
	perFiring := float64(total) / float64(fired)
	t.Logf("%d firings, %d wire bytes, %.1f bytes per firing", fired, total, perFiring)
	if fired != 2033 {
		t.Errorf("8-queens fired %d times, want 2033", fired)
	}
	for _, cc := range ctl.conns {
		if cc.dec.defs != 0 {
			t.Errorf("worker %d sent %d definitions, want none: a worker only references", cc.id, cc.dec.defs)
		}
	}
	if perFiring > 352 {
		t.Errorf("%.1f wire bytes per firing, want at most 352 (348.2 + 1%%): a change to HashKey's bit 0 re-deals W=2 ownership; "+
			"see the 32-salt tables in EXPERIMENTS.md, \"What a key costs, settled\"", perFiring)
	}
}
