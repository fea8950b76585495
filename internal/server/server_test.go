package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcrete/internal/engine"
	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/workloads"
)

// testProg mirrors the engine package's session test program: joins,
// negation, modify, halt. The run budget below stops short of
// quiescence so snapshots expose a non-empty conflict set.
const testProg = `
(literalize item name state)
(literalize log entry)
(literalize phase name)

(p promote
    (phase ^name run)
    (item ^name <n> ^state raw)
    -->
    (modify 2 ^state cooked)
    (make log ^entry <n>))

(p finish
    (phase ^name run)
    -(item ^state raw)
    -->
    (halt))
`

func testWMEs(n int) string {
	var b strings.Builder
	b.WriteString("(phase ^name run)\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "(item ^name i%d ^state raw)\n", i)
	}
	return b.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	if cfg.Compiled == nil {
		cfg.Compiled = compileT(t, testProg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, NewClient(ts.URL, ts.Client())
}

// referenceState runs the same partial workload on an independently
// compiled private engine and renders conflict-set keys plus working
// memory — the oracle every server session must match byte for byte.
func referenceState(t *testing.T, n, runCycles int) string {
	t.Helper()
	prog, err := ops5.ParseProgram(testProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	wmes, err := ops5.ParseWMEs(testWMEs(n))
	if err != nil {
		t.Fatalf("parse wmes: %v", err)
	}
	e.Assert(wmes...)
	if _, err := e.RunCycles(runCycles); err != nil && err != engine.ErrCycleLimit {
		t.Fatalf("run: %v", err)
	}
	return renderSnapshot(e.Snapshot())
}

func renderSnapshot(snap *engine.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fired=%d halted=%v next=%d\n", snap.Fired, snap.Halted, snap.NextTimeTag)
	for _, w := range snap.WMEs {
		fmt.Fprintf(&b, "wm %d:%d %s\n", w.ID, w.TimeTag, w)
	}
	for _, in := range snap.ConflictSet {
		fmt.Fprintf(&b, "cs %s\n", in.Key)
	}
	return b.String()
}

func renderWire(snap *SnapshotResponse) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fired=%d halted=%v next=%d\n", snap.Fired, snap.Halted, snap.NextTimeTag)
	for _, w := range snap.WMEs {
		fmt.Fprintf(&b, "wm %d:%d %s\n", w.ID, w.TimeTag, w.Text)
	}
	for _, in := range snap.ConflictSet {
		fmt.Fprintf(&b, "cs %s\n", in.Key)
	}
	return b.String()
}

// TestManyConcurrentSessionsParity is the tentpole's acceptance test:
// at least 1000 sessions live at once in one server process (128 in
// -short mode), each driven through the HTTP API with a partial run so
// the conflict set is non-empty, and each session's conflict set and
// working memory byte-identical to an independently-compiled engine
// given the same inputs.
func TestManyConcurrentSessionsParity(t *testing.T) {
	sessions := 1000
	if testing.Short() {
		sessions = 128
	}
	// HTTP fan-out is throttled to keep fd counts sane; the sessions
	// themselves all stay open between waves, so the server genuinely
	// holds `sessions` live tenants at once.
	const httpConcurrency = 32
	const runCycles = 2

	// Per-session workload size: 1 + i%5 items. Partial run: 2 cycles.
	refs := make([]string, 6)
	for n := 1; n <= 5; n++ {
		refs[n] = referenceState(t, n, runCycles)
	}

	srv, _, client := newTestServer(t, Config{
		MaxSessions: sessions + 8,
		MaxInflight: httpConcurrency,
		QueueDepth:  httpConcurrency * 4,
	})

	sem := make(chan struct{}, httpConcurrency)
	throttled := func(fn func()) {
		sem <- struct{}{}
		defer func() { <-sem }()
		fn()
	}

	ids := make([]string, sessions)
	errs := make(chan error, sessions)
	var wg sync.WaitGroup

	// Wave 1: open every session (with its wmes) and run it partially.
	for i := 0; i < sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			throttled(func() {
				n := 1 + i%5
				id, err := client.Open(false, testWMEs(n))
				if err != nil {
					errs <- fmt.Errorf("open %d: %w", i, err)
					return
				}
				ids[i] = id
				if _, err := client.Run(id, runCycles); err != nil {
					errs <- fmt.Errorf("run %d: %w", i, err)
				}
			})
		}()
	}
	wg.Wait()
	if live := srv.sessions.live(); live != sessions {
		t.Fatalf("live sessions = %d, want %d", live, sessions)
	}

	// Wave 2: snapshot every live session and compare to the oracle.
	for i := 0; i < sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			throttled(func() {
				if ids[i] == "" {
					return
				}
				snap, err := client.Snapshot(ids[i])
				if err != nil {
					errs <- fmt.Errorf("snapshot %d: %w", i, err)
					return
				}
				n := 1 + i%5
				if got := renderWire(snap); got != refs[n] {
					errs <- fmt.Errorf("session %d (n=%d) diverged:\nref:\n%s\ngot:\n%s", i, n, refs[n], got)
				}
			})
		}()
	}
	wg.Wait()

	// Wave 3: close everything.
	for i := 0; i < sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			throttled(func() {
				if ids[i] != "" {
					if err := client.Close(ids[i]); err != nil {
						errs <- fmt.Errorf("close %d: %w", i, err)
					}
				}
			})
		}()
	}
	wg.Wait()
	close(errs)
	failures := 0
	for err := range errs {
		failures++
		if failures <= 5 {
			t.Error(err)
		}
	}
	if failures > 5 {
		t.Errorf("... and %d more failures", failures-5)
	}
	if live := srv.sessions.live(); live != 0 {
		t.Errorf("live sessions = %d after close wave, want 0", live)
	}
}

func TestSessionLifecycleAndBatch(t *testing.T) {
	_, _, client := newTestServer(t, Config{
		Workload: workloads.NamedProgram{Name: "test", WMEs: testWMEs(3)},
	})

	// Seeded open + batch(run) + snapshot matches the plain path.
	id, err := client.Open(true, "")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	results, err := client.Batch(id, []BatchOp{
		{Op: "assert", WMEs: "(item ^name extra ^state raw)"},
		{Op: "run", MaxCycles: 100},
		{Op: "bogus"},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("batch results = %d, want 3", len(results))
	}
	if len(results[0].IDs) != 1 {
		t.Errorf("batch assert ids = %v, want one", results[0].IDs)
	}
	if results[1].Run == nil || !results[1].Run.Halted {
		t.Errorf("batch run result = %+v, want halted", results[1].Run)
	}
	if results[2].Err == "" {
		t.Errorf("bogus op did not report an error")
	}

	snap, err := client.Snapshot(id)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if !snap.Halted || snap.Fired == 0 {
		t.Errorf("snapshot = fired %d halted %v, want a finished run", snap.Fired, snap.Halted)
	}

	// Retract round trip on a fresh session.
	id2, err := client.Open(false, "")
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	ids, err := client.Assert(id2, "(item ^name x ^state raw)")
	if err != nil || len(ids) != 1 {
		t.Fatalf("assert: ids=%v err=%v", ids, err)
	}
	if removed, err := client.Retract(id2, ids[0]); err != nil || !removed {
		t.Fatalf("retract: removed=%v err=%v", removed, err)
	}
	if removed, _ := client.Retract(id2, 9999); removed {
		t.Errorf("retract of unknown id reported removed")
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.SessionsLive != 2 || stats.SessionsOpened != 2 {
		t.Errorf("stats = live %d opened %d, want 2/2", stats.SessionsLive, stats.SessionsOpened)
	}

	if err := client.Close(id); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := client.Close(id); err == nil {
		t.Errorf("double close did not error")
	} else if se := err.(*StatusError); se.Code != http.StatusNotFound {
		t.Errorf("double close status = %d, want 404", se.Code)
	}
}

func TestSessionLimit(t *testing.T) {
	_, _, client := newTestServer(t, Config{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if _, err := client.Open(false, ""); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	_, err := client.Open(false, "")
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusTooManyRequests {
		t.Fatalf("open beyond limit: err=%v, want 429", err)
	}
}

func TestAdmissionOverflow(t *testing.T) {
	// One execution slot, zero queue tolerance beyond it: a second
	// request while the first is parked must bounce with 429.
	srv, _, client := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 1})

	release := make(chan struct{})
	blocked := make(chan struct{})
	srv.mux.HandleFunc("GET /test/block", srv.admitted(func(w http.ResponseWriter, r *http.Request) {
		close(blocked)
		<-release
	}))

	go client.do("GET", "/test/block", nil, nil)
	<-blocked

	// Slot busy: this waiter fills the queue...
	errCh := make(chan error, 1)
	go func() { errCh <- client.do("GET", "/v1/sessions/none/snapshot", nil, nil) }()
	for srv.adm.waitingNow() == 0 {
		time.Sleep(time.Millisecond)
	}

	// ...so with the queue occupied, one more must get 429.
	overflowErr := client.do("POST", "/v1/sessions", nil, nil)
	close(release)
	if se, ok := overflowErr.(*StatusError); !ok || se.Code != http.StatusTooManyRequests {
		t.Errorf("overflow request err = %v, want 429", overflowErr)
	}
	// The queued request is eventually admitted and then 404s (no such
	// session) — admission let it through once the slot freed.
	if err := <-errCh; err == nil {
		t.Errorf("queued snapshot of unknown session returned nil error, want 404")
	} else if se, ok := err.(*StatusError); !ok || se.Code != http.StatusNotFound {
		t.Errorf("queued request err = %v, want 404 after admission", err)
	}
}

func TestDrain(t *testing.T) {
	srv, _, client := newTestServer(t, Config{})
	id, err := client.Open(false, "")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !client.Healthy() {
		t.Fatalf("healthz failed before drain")
	}

	srv.Drain()

	if client.Healthy() {
		t.Errorf("healthz ok during drain, want 503")
	}
	_, err = client.Open(false, "")
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusServiceUnavailable {
		t.Errorf("open after drain err = %v, want 503", err)
	}
	if _, err := client.Snapshot(id); err == nil {
		t.Errorf("snapshot after drain succeeded, want rejection")
	}
	if live := srv.sessions.live(); live != 0 {
		t.Errorf("live sessions after drain = %d, want 0", live)
	}
	// Stats stays readable (unadmitted route) and reports draining.
	stats, err := client.Stats()
	if err != nil {
		t.Fatalf("stats during drain: %v", err)
	}
	if !stats.Draining {
		t.Errorf("stats.Draining = false during drain")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts, client := newTestServer(t, Config{Metrics: reg})
	id, err := client.Open(false, "")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	_ = id
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("metrics content type = %q", ct)
	}
	if reg.Counter("server.sessions_opened").Value() != 1 {
		t.Errorf("sessions_opened counter = %d, want 1",
			reg.Counter("server.sessions_opened").Value())
	}
}

func TestBadRequests(t *testing.T) {
	_, _, client := newTestServer(t, Config{
		Workload: workloads.NamedProgram{Name: "test", WMEs: testWMEs(3)},
	})
	if _, err := client.Open(false, "(not valid"); err == nil {
		t.Errorf("open with bad wme source succeeded")
	}
	// A seeded open's parse error points into the text the client sent,
	// not into the seed's four lines followed by it.
	_, err := client.Open(true, "(oops")
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusBadRequest || !strings.Contains(se.Msg, "ops5: 1:6: expected ')'") {
		t.Errorf("seeded open with bad wme source: %v, want a 400 naming line 1, column 6", err)
	}
	// A seed that does not parse is refused when the server is built,
	// not on every seeded open after it.
	if _, err := New(Config{
		Compiled: compileT(t, testProg),
		Workload: workloads.NamedProgram{Name: "broken", WMEs: "(phase ^name run)\n(oops"},
	}); err == nil || !strings.Contains(err.Error(), `"broken"`) || !strings.Contains(err.Error(), "2:6") {
		t.Errorf("New with an unparsable seed: %v, want an error naming the workload and 2:6", err)
	}
	if _, err := client.Snapshot("nope"); err == nil {
		t.Errorf("snapshot of unknown session succeeded")
	}
	if _, err := client.Assert("nope", "(item ^name x)"); err == nil {
		t.Errorf("assert to unknown session succeeded")
	}
	// A base URL that does not parse is reported by every call.
	if _, err := NewClient("http://bad host/", nil).Stats(); err == nil || !strings.Contains(err.Error(), "bad host") {
		t.Errorf("call on a client with an unparsable base URL: %v, want the parse error", err)
	}
}

func TestLoadGenerator(t *testing.T) {
	_, _, client := newTestServer(t, Config{
		Workload: workloads.NamedProgram{Name: "test", WMEs: testWMEs(2)},
	})
	report, err := RunLoad(client, LoadSpec{Clients: 4, Sessions: 3})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	byOp := map[string]bool{}
	for _, op := range report.Ops {
		byOp[op.Op] = true
		if op.P99Ns <= 0 || op.P50Ns <= 0 {
			t.Errorf("%s: missing percentiles: %+v", op.Op, op)
		}
		if op.Op == "session" && op.N != 12 {
			t.Errorf("session n = %d, want 12", op.N)
		}
	}
	for _, want := range []string{"open", "run", "snapshot", "close", "session"} {
		if !byOp[want] {
			t.Errorf("report missing op %s (have %v)", want, byOp)
		}
	}
	if report.Sessions != 12 || report.Errors != 0 {
		t.Errorf("sessions, errors = %d, %d, want 12, 0", report.Sessions, report.Errors)
	}
	if report.SessionsPerS <= 0 {
		t.Errorf("sessions/sec = %v, want > 0", report.SessionsPerS)
	}

	// Batch mode exercises the batch endpoint instead of run.
	report, err = RunLoad(client, LoadSpec{Clients: 2, Sessions: 2, Batch: true})
	if err != nil {
		t.Fatalf("RunLoad batch: %v", err)
	}
	found := false
	for _, op := range report.Ops {
		if op.Op == "batch" {
			found = true
		}
	}
	if !found {
		t.Errorf("batch report missing batch op")
	}

	// A session limit below the client count: every close waits until
	// all three opens are answered, so exactly one open is admitted and
	// the other two are rejected with 429.
	srv, _, _ := newTestServer(t, Config{
		Workload:    workloads.NamedProgram{Name: "test", WMEs: testWMEs(2)},
		MaxSessions: 1,
	})
	var opens sync.WaitGroup
	opens.Add(3)
	gated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			opens.Wait()
		}
		srv.Handler().ServeHTTP(w, r)
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
			opens.Done()
		}
	}))
	defer gated.Close()
	report, err = RunLoad(NewClient(gated.URL, gated.Client()), LoadSpec{Clients: 3, Sessions: 1})
	if err != nil {
		t.Fatalf("RunLoad over the session limit: %v", err)
	}
	if report.Sessions != 1 || report.Errors != 2 {
		t.Errorf("sessions, errors = %d, %d, want 1, 2", report.Sessions, report.Errors)
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(samples, 0.5); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(samples, 0.99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v, want 0", p)
	}
}
