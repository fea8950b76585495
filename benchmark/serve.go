package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http/httptest"
	"strings"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/server"
	"mpcrete/internal/workloads"
)

const (
	serveBlocks    = 8
	serveVariants  = 8
	serveMaxCycles = 1000
	serveRequests  = 6 // open, assert, run, snapshot, retract, close
)

// serveTower renders a blocks-world tower whose top-to-bottom order is
// a seeded permutation of b1..bN: the same 3*(N-1) firings whatever
// the order, through different bindings.
func serveTower(rng *rand.Rand) string {
	order := rng.Perm(serveBlocks)
	name := func(pos int) string { return fmt.Sprintf("b%d", order[pos]+1) }
	var b strings.Builder
	b.WriteString("(hand ^holding nothing ^from nowhere)\n")
	for pos := 0; pos < serveBlocks; pos++ {
		on, clear := "table", "no"
		if pos < serveBlocks-1 {
			on = name(pos + 1)
		}
		if pos == 0 {
			clear = "yes"
		}
		fmt.Fprintf(&b, "(block ^name %s ^on %s ^clear %s)\n", name(pos), on, clear)
	}
	for pos := 0; pos < serveBlocks-1; pos++ {
		task := "pending"
		if pos == 0 {
			task = "unstack"
		}
		fmt.Fprintf(&b, "(goal ^task %s ^object %s ^done no)\n", task, name(pos))
	}
	return b.String()
}

// serveVariant is one client transaction's inputs and expected
// snapshot: two spare blocks asserted onto the table, one of them
// retracted after the run.
type serveVariant struct {
	assert  string
	retract int // which of the two asserted wmes to retract
	digest  uint64
	fired   int
}

// serveInstance is the blocks-world program behind the HTTP server,
// driven by closed-loop clients. There is no open-loop rate: a 2-core
// box cannot hold a send schedule against its own server.
type serveInstance struct {
	workload workloads.NamedProgram
	variants []serveVariant
	digest   uint64
	pool     *engine.SessionPool // the in-process path (expectations, direct side pass)
	setup    map[string]*spanAgg

	srv      *server.Server
	ts       *httptest.Server
	client   *server.Client
	rejected int64 // Stats.Rejected at the last audit
}

func setupServe(sc setupCtx) (instance, error) {
	t := sc.tr.newTrack("set-up", 16)
	sp := t.begin("ops5.parse_program", 0)
	prog, err := ops5.ParseProgram(workloads.BlocksWorld)
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
	rng := rand.New(rand.NewSource(sc.seed))
	s := &serveInstance{
		workload: workloads.NamedProgram{Name: "blocks", Program: workloads.BlocksWorld, WMEs: serveTower(rng), MaxCycles: serveMaxCycles},
		pool:     engine.NewSessionPool(compiled, engine.SessionOptions{}),
	}
	inputs := s.workload.WMEs
	for v := 0; v < serveVariants; v++ {
		a, b := rng.Intn(1000), rng.Intn(1000)
		vr := serveVariant{
			assert:  fmt.Sprintf("(block ^name x%d ^on table ^clear yes) (block ^name y%d ^on table ^clear yes)", a, b),
			retract: rng.Intn(2),
		}
		// The expectation comes from the engine driven directly: the
		// server must add transport, never behaviour.
		if vr.digest, vr.fired, err = s.direct(vr, 0, nil); err != nil {
			return nil, fmt.Errorf("direct reference run: %w", err)
		}
		s.variants = append(s.variants, vr)
		inputs += vr.assert + fmt.Sprint(vr.retract)
	}
	h := fnv.New64a()
	h.Write([]byte(inputs))
	s.digest = h.Sum64()

	cfg := server.Config{Compiled: compiled, Workload: s.workload, DefaultMaxCycles: serveMaxCycles}
	if sc.tr != nil {
		// Traced: every pooled session matches through the timing
		// decorator, each on a track of its own (the session lock
		// serialises access to it).
		n := 0
		cfg.NewMatcher = func() engine.MatchApplier {
			n++
			return &pooledMatcher{timedMatcher{
				inner: rete.NewMatcher(compiled.Network(), rete.MatcherOptions{}),
				t:     sc.tr.newTrack(fmt.Sprintf("server matcher %d", n), 1<<16),
			}}
		}
	}
	s.srv, err = server.New(cfg)
	if err != nil {
		return nil, err
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = server.NewClient(s.ts.URL, s.ts.Client())
	if t != nil {
		s.setup = aggregate(t)
	}
	return s, nil
}

// pooledMatcher is the timing decorator in its poolable form: the
// server recycles sessions, so the matcher must Reset.
type pooledMatcher struct{ timedMatcher }

func (m *pooledMatcher) Reset() {
	m.inner.(*rete.Matcher).Reset()
	m.loaded = false
	m.op++ // one "op" per session served, so the trace file cap applies
}

func (s *serveInstance) inputDigest() uint64 { return s.digest }

func (s *serveInstance) close() {
	s.ts.Close()
	s.srv.Drain()
}

// snapshotDigest fingerprints the observable state a snapshot carries,
// in a form both the HTTP response and engine.Snapshot reduce to.
func snapshotDigest(wmes []server.SnapshotWME, conflict []engine.SnapshotInst, fired int, halted bool, nextTag int) uint64 {
	h := fnv.New64a()
	for _, w := range wmes {
		fmt.Fprintf(h, "%d %d %s\n", w.ID, w.TimeTag, w.Text)
	}
	for _, in := range conflict {
		fmt.Fprintf(h, "%s\n", in.Key)
	}
	fmt.Fprintf(h, "%d %t %d", fired, halted, nextTag)
	return h.Sum64()
}

// direct performs one client transaction against the engine
// in-process, through the engine.API surface the server itself uses.
func (s *serveInstance) direct(v serveVariant, i int, t *track) (digest uint64, fired int, err error) {
	sess := s.pool.Get()
	defer s.pool.Put(sess)
	var api engine.API = sess

	sp := t.begin("direct.open", i)
	seed, err := ops5.ParseWMEs(s.workload.WMEs)
	if err != nil {
		return 0, 0, err
	}
	api.Assert(seed...)
	t.end(sp)

	sp = t.begin("ops5.parse_wmes", i)
	extra, err := ops5.ParseWMEs(v.assert)
	t.end(sp)
	if err != nil {
		return 0, 0, err
	}
	asserted := api.Assert(extra...)

	sp = t.begin("direct.run", i)
	fired, err = api.RunCycles(serveMaxCycles)
	t.end(sp)
	if err != nil {
		return 0, fired, err
	}

	sp = t.begin("direct.snapshot", i)
	snap := api.Snapshot()
	rows := make([]server.SnapshotWME, len(snap.WMEs))
	for k, w := range snap.WMEs {
		rows[k] = server.SnapshotWME{ID: w.ID, TimeTag: w.TimeTag, Text: w.String()}
	}
	digest = snapshotDigest(rows, snap.ConflictSet, snap.Fired, snap.Halted, snap.NextTimeTag)
	t.end(sp)

	if !api.Retract(asserted[v.retract].ID) {
		return digest, fired, errors.New("retract found no such wme")
	}
	if !snap.Halted {
		return digest, fired, errors.New("run ended without halt")
	}
	return digest, fired, nil
}

func (s *serveInstance) op(client, i int, t *track) (int64, error) {
	v := s.variants[i%len(s.variants)]

	sp := t.begin("server.open", i)
	id, err := s.client.Open(true, "")
	t.end(sp)
	if err != nil {
		return 0, err
	}
	sp = t.begin("server.assert", i)
	ids, err := s.client.Assert(id, v.assert)
	t.end(sp)
	if err != nil {
		return 0, err
	}
	sp = t.begin("server.run", i)
	res, err := s.client.Run(id, 0)
	t.end(sp)
	if err != nil {
		return 0, err
	}
	sp = t.begin("server.snapshot", i)
	snap, err := s.client.Snapshot(id)
	t.end(sp)
	if err != nil {
		return 0, err
	}
	if len(ids) != 2 {
		return 0, fmt.Errorf("assert returned %d ids, want 2", len(ids))
	}
	sp = t.begin("server.retract", i)
	removed, err := s.client.Retract(id, ids[v.retract])
	t.end(sp)
	if err != nil {
		return 0, err
	}
	sp = t.begin("server.close", i)
	err = s.client.Close(id)
	t.end(sp)
	if err != nil {
		return 0, err
	}

	switch {
	case !res.Halted || res.Fired != v.fired:
		return 1, fmt.Errorf("run fired %d halted %t, direct engine fired %d and halted", res.Fired, res.Halted, v.fired)
	case !removed:
		return 1, errors.New("retract removed nothing")
	}
	if got := snapshotDigest(snap.WMEs, snap.ConflictSet, snap.Fired, snap.Halted, snap.NextTimeTag); got != v.digest {
		return 1, fmt.Errorf("snapshot digest %x, direct engine %x", got, v.digest)
	}
	return 1, nil
}

// audit counts requests the server rejected since the last audit: a
// closed loop of two clients must never trip admission control.
func (s *serveInstance) audit() int {
	st, err := s.client.Stats()
	if err != nil {
		return 1
	}
	n := int(st.Rejected - s.rejected)
	s.rejected = st.Rejected
	return n
}

// serveDirect is the direct transaction as an instance, for the side
// pass that prices the HTTP layer.
type serveDirect struct{ s *serveInstance }

func (d serveDirect) op(client, i int, t *track) (int64, error) {
	v := d.s.variants[i%len(d.s.variants)]
	digest, _, err := d.s.direct(v, i, t)
	if err == nil && digest != v.digest {
		err = errors.New("direct transaction did not repeat")
	}
	return 1, err
}
func (serveDirect) layers(*layerCtx)      {}
func (d serveDirect) inputDigest() uint64 { return d.s.digest }
func (serveDirect) close()                {}

func (s *serveInstance) layers(lc *layerCtx) {
	out, sp := lc.out, lc.spans
	out["ops5.parse_program_us"] = s.setup["ops5.parse_program"].mean()
	out["rete.compile_us"] = s.setup["rete.compile"].mean()
	for _, call := range []string{"open", "assert", "run", "snapshot", "retract", "close"} {
		out["server."+call+"_p50_us"] = sp["server."+call].quantile(0.50)
	}
	out["server.session_p90_us"] = sp["op"].quantile(0.90)
	out["server.session_p99_us"] = sp["op"].quantile(0.99)
	out["server.match_share"] = ratio(sp["match.load"].total()+sp["match.apply"].total(), sp["op"].total())
	if st, err := s.client.Stats(); err == nil {
		out["server.rejected"] = float64(st.Rejected)
		out["server.pooled_sessions"] = float64(st.PooledSessions)
	}

	directPhase, directSpans := lc.side(serveDirect{s}, true)
	out["ops5.parse_wmes_us"] = directSpans["ops5.parse_wmes"].mean()
	out["server.direct_over_http"] = ratio(median(directPhase.lat), median(lc.untraced.lat))
	out["server.http_self_us_per_req"] = (median(lc.untraced.lat) - median(directPhase.lat)) / serveRequests
}
