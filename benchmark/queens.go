package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/transport"
	"mpcrete/internal/workloads"
)

const (
	queensN         = 8
	queensMaxCycles = 100_000
	queensWorkers   = 2
)

// queensBoard generates the 8-queens initial working memory for a
// seed. The head (board, cursor), the squares and the tail (phase) keep
// their places: the program's LEX control walks the squares by recency,
// so moving them reshapes the search, and firing counts then differ by
// a factor of several between seeds. The driver compares medians of
// runs that each have another seed, so a seed may change which inputs
// are used but not how much work they are: it shuffles the attack
// table. mark-threat then fires in another order (another transcript,
// other wme ids and time tags) while the firing count, and the hash
// buckets the tokens land in, stay the same. Seed 1 keeps the
// canonical order.
func queensBoard(seed int64) ([]*ops5.WME, error) {
	wmes, err := ops5.ParseWMEs(workloads.QueensWMEs(queensN))
	if err != nil {
		return nil, err
	}
	if seed == 1 {
		return wmes, nil
	}
	var attacks []int
	for i, w := range wmes {
		if w.Class == "attack" {
			attacks = append(attacks, i)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(attacks), func(i, j int) {
		a, b := attacks[i], attacks[j]
		wmes[a], wmes[b] = wmes[b], wmes[a]
	})
	return wmes, nil
}

// wmeDigest fingerprints generated wmes in order: same seed, same
// digest.
func wmeDigest(wmes []*ops5.WME) uint64 {
	h := fnv.New64a()
	for _, w := range wmes {
		h.Write([]byte(w.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// queensMode selects the match runtime an op builds.
type queensMode struct {
	name     string // "seq", "par", "wire"
	par      parallel.Options
	loopback bool // par only: carry messages through transport.NewLoopback
	flight   bool // par only: attach a causal flight recorder
}

// queensExpect is what every op's output is checked against. The
// firing count and transcript digest come from a sequential reference
// run in set-up; the placement check is arithmetic and needs no
// reference at all.
type queensExpect struct {
	firings    int
	transcript uint64
}

type queensInstance struct {
	mode     queensMode
	compiled *engine.Compiled
	board    []*ops5.WME
	digest   uint64
	expect   queensExpect
	setup    map[string]*spanAgg // traced set-up spans (nil when untraced)
	stats    queensStats         // traced phase only
}

// queensStats accumulates the counts the spans cannot carry.
type queensStats struct {
	ops       int
	firings   int64
	insts     int64
	memPeak   int
	processed []int64
	msgs      int64
	wireBytes int64
}

func setupQueens(mode queensMode) func(setupCtx) (instance, error) {
	return func(sc setupCtx) (instance, error) {
		t := sc.tr.newTrack("set-up", 16)
		sp := t.begin("ops5.parse_program", 0)
		prog, err := ops5.ParseProgram(workloads.Queens)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("rete.compile", 0)
		compiled, err := engine.Compile(prog, engine.CompileOptions{})
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("ops5.parse_wmes", 0)
		board, err := queensBoard(sc.seed)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		q := &queensInstance{mode: mode, compiled: compiled, board: board, digest: wmeDigest(board)}
		if t != nil {
			q.setup = aggregate(t)
		}
		// The sequential reference run: its transcript is the
		// expectation for every runtime.
		out, err := q.variant(queensMode{name: "seq"}).execute(0, nil)
		if err != nil {
			return nil, err
		}
		if err := checkPlacement(out.wmes); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		if !out.halted {
			return nil, errors.New("reference run did not halt")
		}
		q.expect = queensExpect{firings: out.firings, transcript: out.transcript}
		return q, nil
	}
}

// variant is the same board and expectations under another runtime
// configuration, for side passes.
func (q *queensInstance) variant(mode queensMode) *queensInstance {
	return &queensInstance{mode: mode, compiled: q.compiled, board: q.board, digest: q.digest, expect: q.expect}
}

func (q *queensInstance) close()              {}
func (q *queensInstance) inputDigest() uint64 { return q.digest }

// queensOutput is what one execution produced, before checking.
type queensOutput struct {
	firings    int
	transcript uint64
	halted     bool
	wmes       []*ops5.WME
}

// timedMatcher is the timing decorator around engine.MatchApplier:
// one span per Apply, plus the counts only the matcher boundary sees.
//
// The first Apply after construction or Reset is named "match.load":
// it carries the whole initial working memory and is ~100x a
// steady-state cycle, so it is kept out of the per-cycle percentiles.
type timedMatcher struct {
	inner  engine.MatchApplier
	t      *track
	op     int
	loaded bool
	insts  int64
	peak   int // max left+right memory entries (sequential matcher only)
}

func (m *timedMatcher) Apply(changes []rete.Change) []rete.InstChange {
	name := "match.apply"
	if !m.loaded {
		name, m.loaded = "match.load", true
	}
	sp := m.t.begin(name, m.op)
	out := m.inner.Apply(changes)
	m.t.end(sp)
	m.insts += int64(len(out))
	if seq, ok := m.inner.(*rete.Matcher); ok {
		left, right := seq.Memories()
		m.peak = max(m.peak, left.Len()+right.Len())
	}
	return out
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

// dialWorkers starts n in-process workers against a control plane:
// each dials, wraps its conn in a countConn and serves until shutdown.
// wait blocks until every worker has returned and reports their
// errors and the bytes they read and wrote.
func dialWorkers(addr string, n int) (wait func() (read, written int64, err error)) {
	conns := make([]*countConn, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs[w] = err
				return
			}
			conns[w] = &countConn{Conn: conn}
			errs[w] = transport.ServeConn(conns[w])
		}(w)
	}
	return func() (read, written int64, err error) {
		wg.Wait()
		for _, c := range conns {
			if c != nil {
				read += c.read
				written += c.written
			}
		}
		return read, written, errors.Join(errs...)
	}
}

// execute runs one board to halt under q.mode and returns what it
// produced. Transport failures inside Control.Apply panic (the
// MatchApplier interface has no error path); they are reported as the
// op's error.
func (q *queensInstance) execute(i int, t *track) (out queensOutput, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runtime panic: %v", r)
		}
	}()
	network := q.compiled.Network()
	var matcher engine.MatchApplier
	var rt *parallel.Runtime
	var ctl *transport.Control
	var waitWorkers func() (int64, int64, error)
	switch q.mode.name {
	case "par":
		opts := q.mode.par
		opts.Workers = queensWorkers
		if q.mode.loopback {
			opts.Transport = transport.NewLoopback(network)
		}
		if q.mode.flight {
			opts.Causal = parallel.NewFlightRecorder(queensWorkers, 0, 0, rete.DefaultNBuckets)
		}
		sp := t.begin("parallel.new", i)
		rt, err = parallel.New(network, opts)
		t.end(sp)
		if err != nil {
			return out, err
		}
		matcher = rt
	case "wire":
		sp := t.begin("transport.handshake", i)
		ctl, err = transport.Listen(network, "127.0.0.1:0", transport.ControlOptions{
			Workers:          queensWorkers,
			HandshakeTimeout: 10 * time.Second,
		})
		if err != nil {
			t.end(sp)
			return out, err
		}
		waitWorkers = dialWorkers(ctl.Addr(), queensWorkers)
		err = ctl.WaitWorkers()
		t.end(sp)
		if err != nil {
			ctl.Close()
			waitWorkers()
			return out, err
		}
		matcher = ctl
	}

	var tm *timedMatcher
	if t != nil {
		if matcher == nil {
			matcher = rete.NewMatcher(network, rete.MatcherOptions{})
		}
		tm = &timedMatcher{inner: matcher, t: t, op: i}
		matcher = tm
	}

	sp := t.begin("engine.session_new", i)
	sess := q.compiled.NewSession(engine.SessionOptions{Matcher: matcher})
	t.end(sp)
	sp = t.begin("engine.insert", i)
	sess.InsertWMEs(q.board...)
	t.end(sp)

	// Run to halt, one Step at a time so the transcript can be
	// digested without asking the engine to format and write it.
	sp = t.begin("engine.run", i)
	h := fnv.New64a()
	var tag [8]byte
	for out.firings < queensMaxCycles {
		in, stepErr := sess.Step()
		if stepErr != nil {
			err = stepErr
			break
		}
		if in == nil {
			break
		}
		out.firings++
		h.Write([]byte(in.Prod.Name))
		for _, tt := range in.TimeTags {
			for b := 0; b < 8; b++ {
				tag[b] = byte(tt >> (8 * b))
			}
			h.Write(tag[:])
		}
	}
	t.end(sp)
	out.transcript = h.Sum64()
	out.halted = sess.Halted()

	var wireBytes int64
	switch {
	case rt != nil:
		sp = t.begin("parallel.close", i)
		rt.Close()
		t.end(sp)
	case ctl != nil:
		sp = t.begin("transport.close", i)
		closeErr := ctl.Close()
		read, written, workerErr := waitWorkers()
		wireBytes = read + written
		t.end(sp)
		err = errors.Join(err, closeErr, workerErr)
	}
	out.wmes = sess.WMEs()

	if tm != nil {
		q.stats.ops++
		q.stats.firings += int64(out.firings)
		q.stats.insts += tm.insts
		q.stats.memPeak = max(q.stats.memPeak, tm.peak)
		q.stats.wireBytes += wireBytes
		var ps parallel.Stats
		if rt != nil {
			ps = rt.Stats()
		} else if ctl != nil {
			ps = ctl.Stats()
		}
		if q.stats.processed == nil {
			q.stats.processed = make([]int64, len(ps.Processed))
		}
		for w := range ps.Processed {
			q.stats.processed[w] += ps.Processed[w]
			q.stats.msgs += ps.MsgsSent[w]
		}
	}
	return out, err
}

func (q *queensInstance) op(client, i int, t *track) (int64, error) {
	out, err := q.execute(i, t)
	if err != nil {
		return int64(out.firings), err
	}
	return int64(out.firings), q.check(out)
}

// check is the per-op output check: halted, a valid placement, and the
// reference run's firing count and transcript.
func (q *queensInstance) check(out queensOutput) error {
	if !out.halted {
		return errors.New("run ended without halt")
	}
	if err := checkPlacement(out.wmes); err != nil {
		return err
	}
	if out.firings != q.expect.firings {
		return fmt.Errorf("fired %d, reference fired %d", out.firings, q.expect.firings)
	}
	if out.transcript != q.expect.transcript {
		return fmt.Errorf("firing transcript digest %x, reference %x", out.transcript, q.expect.transcript)
	}
	return nil
}

// checkPlacement verifies arithmetically that working memory holds
// exactly queensN queens, one per column and row, no two on a
// diagonal. It consults no other engine: it is ground truth.
func checkPlacement(wmes []*ops5.WME) error {
	rowOf := map[int]int{}
	n := 0
	for _, w := range wmes {
		if w.Class != "queen" {
			continue
		}
		n++
		rowOf[int(w.Get("col").Num)] = int(w.Get("row").Num)
	}
	if n != queensN || len(rowOf) != queensN {
		return fmt.Errorf("%d queen wmes over %d columns, want %d", n, len(rowOf), queensN)
	}
	for c1 := 1; c1 <= queensN; c1++ {
		r1, ok := rowOf[c1]
		if !ok || r1 < 1 || r1 > queensN {
			return fmt.Errorf("column %d: no queen on the board", c1)
		}
		for c2 := c1 + 1; c2 <= queensN; c2++ {
			r2 := rowOf[c2]
			if r1 == r2 || r1-r2 == c1-c2 || r1-r2 == c2-c1 {
				return fmt.Errorf("queens (%d,%d) and (%d,%d) attack each other", c1, r1, c2, r2)
			}
		}
	}
	return nil
}

// layers fills the per-layer metrics of the three queens rows. The
// engine spans are the same on all three; the match-phase spans are
// attributed to the layer that served them.
func (q *queensInstance) layers(lc *layerCtx) {
	out, sp, st := lc.out, lc.spans, q.stats
	ops := float64(max(1, st.ops))
	apply, load := sp["match.apply"], sp["match.load"]
	cycles := float64(max(1, apply.count()+load.count()))
	matchTotal := apply.total() + load.total()
	opTotal := sp["op"].total()

	out["ops5.parse_program_us"] = q.setup["ops5.parse_program"].mean()
	out["ops5.parse_wmes_us"] = q.setup["ops5.parse_wmes"].mean()
	out["rete.compile_us"] = q.setup["rete.compile"].mean()

	out["engine.session_new_us"] = sp["engine.session_new"].mean()
	out["engine.insert_us"] = sp["engine.insert"].mean()
	out["engine.resolve_act_us_per_cycle"] = sp["engine.run"].selfTotal() / cycles
	out["engine.resolve_act_share"] = ratio(sp["engine.run"].selfTotal(), opTotal)
	out["engine.firings_per_op"] = float64(st.firings) / ops
	out["rete.insts_per_op"] = float64(st.insts) / ops

	switch q.mode.name {
	case "seq":
		out["engine.op_p90_us"] = sp["op"].quantile(0.90)
		out["engine.op_p99_us"] = sp["op"].quantile(0.99)
		out["rete.load_us"] = load.mean()
		out["rete.apply_p50_us"] = apply.quantile(0.50)
		out["rete.apply_p99_us"] = apply.quantile(0.99)
		out["rete.apply_share"] = ratio(matchTotal, opTotal)
		out["rete.mem_entries_peak"] = float64(st.memPeak)

	case "par":
		var total, peak int64
		for _, p := range st.processed {
			total += p
			peak = max(peak, p)
		}
		out["parallel.new_us"] = sp["parallel.new"].mean()
		out["parallel.close_us"] = sp["parallel.close"].mean()
		out["parallel.apply_p50_us"] = apply.quantile(0.50)
		out["parallel.apply_p99_us"] = apply.quantile(0.99)
		out["parallel.acts_per_cycle"] = float64(total) / cycles
		out["parallel.msgs_per_cycle"] = float64(st.msgs) / cycles
		out["parallel.imbalance"] = ratio(float64(peak)*queensWorkers, float64(total))
		out["parallel.op_p90_us"] = sp["op"].quantile(0.90)
		out["parallel.op_p99_us"] = sp["op"].quantile(0.99)

		// Side passes: the same board under other runtime settings.
		// Ratios use untraced op medians; the cycle tax needs Apply
		// spans on both sides.
		parP50 := median(lc.untraced.lat)
		_, seqSpans := lc.side(q.variant(queensMode{name: "seq"}), true)
		out["parallel.cycle_tax_us"] = apply.mean() - seqSpans["match.apply"].mean()
		out["parallel.speedup_vs_seq"] = ratio(seqSpans["op"].quantile(0.5), sp["op"].quantile(0.5))
		routed, _ := lc.side(q.variant(queensMode{name: "par", par: parallel.Options{RouteRoots: true}}), false)
		out["parallel.routed_over_bcast"] = ratio(median(routed.lat), parP50)
		four, _ := lc.side(q.variant(queensMode{name: "par", par: parallel.Options{Detector: parallel.FourCounterDetector}}), false)
		out["termdet.four_over_count"] = ratio(median(four.lat), parP50)
		flight, _ := lc.side(q.variant(queensMode{name: "par", flight: true}), false)
		out["obs.flight_on_over_off"] = ratio(median(flight.lat), parP50)

	case "wire":
		out["transport.handshake_us"] = sp["transport.handshake"].mean()
		out["transport.close_us"] = sp["transport.close"].mean()
		out["transport.cycle_p50_us"] = apply.quantile(0.50)
		out["transport.cycle_p99_us"] = apply.quantile(0.99)
		out["transport.wire_b_per_cycle"] = float64(st.wireBytes) / cycles
		out["transport.wire_b_per_firing"] = ratio(float64(st.wireBytes), float64(st.firings))

		// The Table 5-1 analogue: what a message costs over the wire
		// beyond what it costs between goroutines. A message is one
		// relayed activation batch or one cycle packet to one worker.
		inprocPhase, inprocSpans := lc.side(q.variant(queensMode{name: "par"}), true)
		inprocMatch := inprocSpans["match.apply"].total() + inprocSpans["match.load"].total()
		msgsPerOp := (float64(st.msgs) + cycles*queensWorkers) / ops
		out["transport.us_per_msg_over_inproc"] = ratio(matchTotal/ops-inprocMatch/float64(max(1, inprocPhase.ops)), msgsPerOp)
		loop, _ := lc.side(q.variant(queensMode{name: "par", loopback: true}), false)
		inproc, _ := lc.side(q.variant(queensMode{name: "par"}), false)
		out["transport.loopback_over_inproc"] = ratio(median(loop.lat), median(inproc.lat))
	}
}
