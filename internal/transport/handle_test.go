package transport

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"mpcrete/internal/alloc"
	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/raceflag"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// TestRecycleParity runs a churning script — at most four wmes live,
// so the control's table hands every handle out again and again — over
// the star in both root modes. A recycled handle names a new wme with a
// new time tag, so the control defines it again before any worker may
// read it, and the worker's mirror refills the row it retires: every
// cycle's conflict set equals the sequential matcher's, every handle
// names at least 11 wmes in turn, and no worker ever sends a
// definition. Under alloc.Poison (TestPoisonedRewinds) the table
// quarantines what it frees, so there every handle names exactly one.
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
				foldInsts(t, seqCS, seq.Apply(ch))
				insts, err := ctl.Cycle(ch)
				if err != nil {
					t.Fatal(err)
				}
				foldInsts(t, gotCS, insts)
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
				if alloc.Poisoned() && len(ids) != 1 {
					t.Errorf("handle %d named %d wmes under the poison, want 1 (quarantined once freed)", h, len(ids))
				} else if !alloc.Poisoned() && len(ids) < 11 {
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

// countConn counts the bytes crossing a worker's connection, and keeps
// those it read. Only the worker goroutine touches it until ServeConn
// returns.
type countConn struct {
	net.Conn
	read, written int64
	got           []byte
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	c.got = append(c.got, p[:n]...)
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
// activation for a recorder that was off, and 348.2 with a turn frame
// that carries a record only under a recorder while a number crossed as
// its float bits in a uvarint (ten bytes for 3). It reads 310.7 with
// the bits byte-reversed. The log line is the definition/reference
// split per connection and the rows each worker's mirror made: every
// definition at a handle the mirror fills refills a retired row, so
// 2,061 definitions cost 676 rows. The row count follows the order in
// which a mirror meets definitions, and it is exact because a cycle
// frame reaches every worker before any relay of its cycle
// (parallel.Carrier's wave): a mirror meets each cycle's new wmes in
// the cycle frame's order. While the control wrote the two cycle frames
// one after the other, a fast worker's relay could define them to the
// other first, and about one run in 70 made 675 rows.
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
		rows := mirrorRows(t, compiled.Network(), conns[cc.id].got)
		t.Logf("worker %d: control to worker %d definitions, %d references; worker to control %d definitions, %d references; %d mirror rows",
			cc.id, cc.enc.defs, cc.enc.refs, cc.dec.defs, cc.dec.refs, rows)
		if cc.enc.defs != 2061 || rows != 676 {
			t.Errorf("worker %d was sent %d definitions and made %d rows for them, want 2,061 and 676 (one at each of the control table's 656 handles, and 20 free ones that handles changing layout left over)",
				cc.id, cc.enc.defs, rows)
		}
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
	if perFiring > 313.8 {
		t.Errorf("%.1f wire bytes per firing, want at most 313.8 (310.7 + 1%%): a change to HashKey's bit 0 re-deals W=2 ownership; "+
			"see the 32-salt tables in EXPERIMENTS.md, \"What a key costs, settled\"", perFiring)
	}
}

// mirrorRows replays what a worker read — the hello, then its
// deliveries — through a mirror's decoder, as the worker decoded it, and
// returns how many rows the mirror made. Every one is at a handle or on
// a free list: a definition either fills an empty handle or retires the
// row it replaces, and a retired row is only ever refilled.
func mirrorRows(t *testing.T, network *rete.Network, stream []byte) int {
	t.Helper()
	d := dec{nbuckets: rete.DefaultNBuckets, workers: 2, tab: rete.NewTable(), mirror: true, layouts: network.Layouts()}
	fr := frameReader{r: bytes.NewReader(stream)}
	for {
		ft, payload, err := fr.next()
		if err == io.EOF || ft == ftShutdown {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ft == ftHello {
			continue
		}
		d.Reset(payload)
		if _, err := decodeDelivery(network, &d, ft); err != nil {
			t.Fatal(err)
		}
	}
	rows := 0
	for h := int32(1); h < mirrorMax; h++ {
		if d.tab.WME(h) != nil {
			rows++
		}
	}
	for _, l := range network.Layouts() {
		for d.rows.Reuse(l, nil) != nil {
			rows++
		}
	}
	return rows
}

// wireQueensRun runs an 8-queens session whose match phase runs on
// Listen with two in-process ServeConn workers, from Listen to Close and
// the workers' return, run to the halt, and returns the heap bytes and
// objects the run allocated: the control's and both workers' together.
func wireQueensRun(t *testing.T, c *engine.Compiled, board []*ops5.WME) (bytes, objects float64) {
	t.Helper()
	const workers = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ctl, err := Listen(c.Network(), "127.0.0.1:0", ControlOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	werrs := startWorkers(t, ctl.Addr(), workers)
	if err := ctl.WaitWorkers(); err != nil {
		t.Fatal(err)
	}
	s := c.NewSession(engine.SessionOptions{Matcher: ctl})
	s.InsertWMEs(board...)
	fired, err := s.Run(100_000)
	ctl.Close()
	for range workers {
		if werr := <-werrs; werr != nil {
			t.Fatalf("worker exit: %v", werr)
		}
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2033 {
		t.Fatalf("8-queens fired %d times, want 2033", fired)
	}
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// warmWireQueens compiles 8-queens and its board and runs it over the
// star once, so that the process's caches hold its program: the control
// prints it once per network (Control.program) and a worker compiles it
// once per process (decodeHello). What a run allocates then does not
// depend on which tests ran before it.
func warmWireQueens(t *testing.T) (*engine.Compiled, []*ops5.WME) {
	t.Helper()
	prog, err := ops5.ParseProgram(workloads.Queens)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	board, err := ops5.ParseWMEs(workloads.QueensWMEs(8))
	if err != nil {
		t.Fatal(err)
	}
	wireQueensRun(t, c, board)
	return c, board
}

// TestWireQueensBytesPerFiring is TestParQueensBytesPerFiring
// (parallel) over the star, in the unit the benchmark's wire-queens row
// reports: heap bytes per firing of a warm wireQueensRun. It reads
// 505.7–509.6, alone or after the package's other tests (507.1–512.2
// while a delta carried its wme run as a slice header; 576.3–578.9
// while every connection's buffers — frame encoders, the control's send
// state, a mirror's rows, decoded activation and delta lists, the
// worker step's queues — grew from empty by doubling; 678.4 while
// every token a memory stored came from an arena nothing but Reset
// rewound and a worker kept every decoded token's slab; 782.2 run alone and 748.2 after the package's other tests while
// every connection printed and compiled the program and a mirror's rows
// and symbols were allocations of their own; 886.0 and 849.0 while the
// driver netted each cycle's deltas into a result slab of its own;
// 1,310.3 and 1,272.9 while each worker's mirror allocated a row per
// definition, each connection end read through a 64 KiB bufio.Reader
// and a number crossed as its float bits in a uvarint).
func TestWireQueensBytesPerFiring(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("escape analysis decides differently under the race detector")
	}
	c, board := warmWireQueens(t)
	bytes, _ := wireQueensRun(t, c, board)
	perFiring := bytes / 2033
	t.Logf("%.1f heap bytes per firing", perFiring)
	const pinned = 509.6
	if perFiring > pinned*1.03 {
		t.Errorf("%.1f heap bytes per firing, want at most %.1f", perFiring, pinned*1.03)
	}
}

// TestWireQueensRunAllocs pins the heap objects of a warm
// wireQueensRun, control and both workers together: 472 to 479, 0.23 a
// firing (602 to 609 while every connection's buffers grew from empty
// by doubling instead of taking their size from the frame or delivery
// that fills them; 711 to 723 while stored tokens came from a never-rewound
// arena, a mirror's free rows grew their lists one row at a time and a
// cycle packet grew one change at a time; 4,155 to 4,161 while every
// connection printed and compiled the program, and a mirror's rows and
// symbols were allocations of their own).
func TestWireQueensRunAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("escape analysis decides differently under the race detector")
	}
	c, board := warmWireQueens(t)
	_, objects := wireQueensRun(t, c, board)
	t.Logf("a warm 8-queens run over the star makes %.0f heap objects", objects)
	const pinned = 476
	if objects > pinned*1.05 {
		t.Errorf("a warm 8-queens run over the star makes %.0f heap objects, want at most %.0f", objects, pinned*1.05)
	}
}
