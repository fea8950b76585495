package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/raceflag"
	"mpcrete/internal/workloads"
)

// escapedProg is a program whose production name and symbols carry what
// ParseWMEs lets through and JSON has to escape: &, the quote, the
// backslash and a non-ASCII rune. One firing per thing, so a budget of
// one cycle leaves instantiations — and their keys — in the snapshot.
const escapedProg = `
(literalize thing name note)
(literalize mark of)

(p tag&"mark"\é
    (thing ^name <n> ^note a&b)
    -(mark ^of <n>)
    -->
    (make mark ^of <n>))
`

const escapedWMEs = `(thing ^name "q" ^note a&b)
(thing ^name a\b ^note a&b)
(thing ^name é ^note a&b)
`

func compileT(t testing.TB, src string) *engine.Compiled {
	t.Helper()
	prog, err := ops5.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// serve runs one request through the handler and returns the status and
// the raw body.
func serve(h http.Handler, method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// asEncodingJSON is the reply the parent commit wrote: the value through
// a json.Encoder.
func asEncodingJSON(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// parentSnapshot builds a snapshot reply the way the handler did before
// it rendered from the rows: a defensive copy of the session, every wme
// printed into a string.
func parentSnapshot(eng *engine.Session) SnapshotResponse {
	snap := eng.Snapshot()
	resp := SnapshotResponse{
		WMEs:        make([]SnapshotWME, 0, len(snap.WMEs)),
		ConflictSet: snap.ConflictSet,
		Fired:       snap.Fired,
		Halted:      snap.Halted,
		NextTimeTag: snap.NextTimeTag,
	}
	if resp.ConflictSet == nil {
		resp.ConflictSet = []engine.SnapshotInst{}
	}
	for _, w := range snap.WMEs {
		resp.WMEs = append(resp.WMEs, SnapshotWME{ID: w.ID, TimeTag: w.TimeTag, Text: w.String()})
	}
	return resp
}

func idsOf(wmes []*ops5.WME) []int {
	var ids []int
	for _, w := range wmes {
		ids = append(ids, w.ID)
	}
	return ids
}

func mustParse(t *testing.T, src string) []*ops5.WME {
	t.Helper()
	wmes, err := ops5.ParseWMEs(src)
	if err != nil {
		t.Fatal(err)
	}
	return wmes
}

// TestRepliesAreEncodingJSONs drives every session endpoint, and the
// error replies, and holds each body to the bytes encoding/json prints
// for the parent's response struct filled from an engine driven
// directly — on the blocks workload and on one whose symbols need every
// escape ParseWMEs can deliver.
func TestRepliesAreEncodingJSONs(t *testing.T) {
	blocks, err := workloads.Named("blocks")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []struct {
		name, extra string // extra: two wmes to assert
		workloads.NamedProgram
	}{
		{"blocks", "(block ^name x1 ^on table ^clear yes) (block ^name y2 ^on table ^clear yes)", blocks},
		{"escaped", "(thing ^name a\x01\x7f\\ ^note a&b) (thing ^name \"é& ^note other)",
			workloads.NamedProgram{Name: "escaped", Program: escapedProg, WMEs: escapedWMEs}},
	} {
		t.Run(wl.name, func(t *testing.T) {
			srv, err := New(Config{Compiled: compileT(t, wl.Program), Workload: wl.NamedProgram})
			if err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			// The reference: another compilation, a session of its own,
			// the same operations.
			ref := compileT(t, wl.Program).NewSession(engine.SessionOptions{})
			run := func(max int) RunResult {
				fired, err := ref.RunCycles(max)
				res := RunResult{Fired: fired, TotalFired: ref.Fired(), Halted: ref.Halted()}
				if err == engine.ErrCycleLimit {
					res.CycleLimit = true
				} else if err != nil {
					t.Fatal(err)
				}
				return res
			}
			check := func(what string, wantStatus int, want any, gotStatus int, got string) {
				t.Helper()
				if w := asEncodingJSON(t, want); gotStatus != wantStatus || got != w {
					t.Errorf("%s:\n got %d %s want %d %s", what, gotStatus, got, wantStatus, w)
				}
			}
			request := func(method, path string, in any) (int, string) {
				t.Helper()
				body := ""
				if in != nil {
					body = asEncodingJSON(t, in)
				}
				return serve(h, method, path, body)
			}
			extra := mustParse(t, wl.extra)

			// Open: bare, then seeded with one wme of the client's own
			// after the seed.
			st, got := request("POST", "/v1/sessions", nil)
			check("bare open", 201, openResponse{SessionID: "s1"}, st, got)
			st, got = request("POST", "/v1/sessions", openRequest{Seed: true, WMEs: extra[0].String()})
			asserted := ref.Assert(append(mustParse(t, wl.WMEs), extra[0])...)
			check("seeded open", 201, openResponse{SessionID: "s2", Asserted: idsOf(asserted)}, st, got)
			if len(asserted) < 2 {
				t.Fatalf("seed asserted %d wmes", len(asserted))
			}

			// Assert: some, and none (the nil slice prints null).
			st, got = request("POST", "/v1/sessions/s2/assert", assertRequest{WMEs: extra[1].String()})
			check("assert", 200, assertResponse{IDs: idsOf(ref.Assert(extra[1]))}, st, got)
			st, got = request("POST", "/v1/sessions/s2/assert", assertRequest{})
			check("assert of nothing", 200, assertResponse{}, st, got)

			// One cycle: the budget runs out and the conflict set is not
			// empty, so the snapshot carries keys.
			st, got = request("POST", "/v1/sessions/s2/run", runRequest{MaxCycles: 1})
			res := run(1)
			check("run of one cycle", 200, res, st, got)
			if !res.CycleLimit {
				t.Fatalf("one cycle did not hit the limit: %+v", res)
			}
			st, got = request("GET", "/v1/sessions/s2/snapshot", nil)
			snap := parentSnapshot(ref)
			check("snapshot mid-run", 200, snap, st, got)
			if len(snap.ConflictSet) == 0 || len(snap.WMEs) == 0 {
				t.Fatalf("mid-run snapshot is vacuous: %+v", snap)
			}

			// Retract: a live wme, then an id that was never given out.
			victim := asserted[1].ID
			st, got = request("POST", "/v1/sessions/s2/retract", retractRequest{ID: victim})
			check("retract", 200, map[string]bool{"removed": ref.Retract(victim)}, st, got)
			st, got = request("POST", "/v1/sessions/s2/retract", retractRequest{ID: 9999})
			check("retract of nothing", 200, map[string]bool{"removed": ref.Retract(9999)}, st, got)

			// Batch: every kind of result, two kinds of per-op error.
			st, got = request("POST", "/v1/sessions/s2/batch", []BatchOp{
				{Op: "assert", WMEs: extra[1].String()},
				{Op: "retract", ID: asserted[0].ID},
				{Op: "run", MaxCycles: 1},
				{Op: "assert", WMEs: "(oops"},
				{Op: "bogus"},
			})
			removed := false
			want := []BatchOpResult{{IDs: idsOf(ref.Assert(extra[1]))}, {Removed: &removed}, {}, {}, {Err: `unknown op "bogus"`}}
			removed = ref.Retract(asserted[0].ID)
			res = run(1)
			want[2].Run = &res
			_, perr := ops5.ParseWMEs("(oops")
			want[3].Err = fmt.Sprintf("parse wmes: %v", perr)
			check("batch", 200, want, st, got)

			// Run with an empty body: the default budget, to the end.
			st, got = serve(h, "POST", "/v1/sessions/s2/run", "")
			res = run(1000)
			check("run to the end", 200, res, st, got)
			if res.CycleLimit {
				t.Fatalf("the default budget did not finish the run: %+v", res)
			}
			st, got = request("GET", "/v1/sessions/s2/snapshot", nil)
			check("snapshot at the end", 200, parentSnapshot(ref), st, got)

			// Close, and the error replies.
			st, got = request("DELETE", "/v1/sessions/s2", nil)
			check("close", 200, map[string]bool{"closed": true}, st, got)
			st, got = request("DELETE", "/v1/sessions/s2", nil)
			check("close again", 404, errorResponse{Error: "no such session"}, st, got)
			st, got = request("GET", "/v1/sessions/s2/snapshot", nil)
			check("snapshot of a closed session", 404, errorResponse{Error: "no such session"}, st, got)
			st, got = request("POST", "/v1/sessions/s1/assert", assertRequest{WMEs: "(oops"})
			check("assert that does not parse", 400, errorResponse{Error: want[3].Err}, st, got)
		})
	}
}

// TestRequestBodyEdges: what a body may be. Empty, or all JSON
// whitespace, leaves the request zero; one JSON value is decoded; bytes
// after it are refused, which the json.Decoder this replaced let by; and
// anything over the cap is 413 with no more than the cap read.
func TestRequestBodyEdges(t *testing.T) {
	srv, err := New(Config{
		Compiled: compileT(t, testProg),
		Workload: workloads.NamedProgram{Name: "test", WMEs: testWMEs(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if st, body := serve(h, "POST", "/v1/sessions", `{"seed":true}`); st != 201 {
		t.Fatalf("open: %d %s", st, body)
	}
	for _, row := range []struct {
		what, path, body string
		status           int
		reply            string // "" = not compared
	}{
		{"empty body on run", "/v1/sessions/s1/run", "", 200, `{"fired":4,"total_fired":4,"halted":true}` + "\n"},
		{"whitespace body on run", "/v1/sessions/s1/run", " \r\n\t", 200, `{"fired":0,"total_fired":4,"halted":true}` + "\n"},
		{"value then whitespace", "/v1/sessions/s1/retract", "{\"id\":1} \n", 200, `{"removed":true}` + "\n"},
		{"trailing bytes", "/v1/sessions/s1/retract", `{"id":1} trailing`, 400, ""},
		{"two values", "/v1/sessions/s1/retract", `{"id":1}{"id":2}`, 400, ""},
		{"not JSON", "/v1/sessions/s1/assert", `(item ^name x)`, 400, ""},
		{"wrong type", "/v1/sessions/s1/retract", `{"id":"one"}`, 400, ""},
		{"a space that is not JSON's", "/v1/sessions/s1/run", "\u00a0", 400, ""},
	} {
		st, body := serve(h, "POST", row.path, row.body)
		if st != row.status || (row.reply != "" && body != row.reply) {
			t.Errorf("%s: %d %s, want %d %s", row.what, st, body, row.status, row.reply)
		}
		if st == 400 && !strings.HasPrefix(body, `{"error":"bad request body: `) {
			t.Errorf("%s: error reply %s", row.what, body)
		}
	}

	// Over the cap, on every endpoint that reads a body: 413, the usual
	// JSON error, and the endless body was read no further than the cap
	// (MaxBytesReader looks one byte past it to tell).
	for _, path := range []string{"/v1/sessions", "/v1/sessions/s1/assert", "/v1/sessions/s1/retract", "/v1/sessions/s1/run", "/v1/sessions/s1/batch"} {
		body := &countingReader{}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, body))
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
			t.Errorf("%s with an endless body: %d %s (%v), want 413 and a JSON error", path, rec.Code, rec.Body, err)
		}
		if body.n > maxBodyBytes+1 {
			t.Errorf("%s with an endless body: read %d bytes, cap is %d", path, body.n, maxBodyBytes)
		}
	}
	if st, body := serve(h, "POST", "/v1/sessions/s1/assert", `{"wmes":"`+strings.Repeat(" ", maxBodyBytes-len(`{"wmes":""}`))+`"}`); st != 200 {
		t.Errorf("a body of exactly the cap: %d %s, want 200", st, body)
	}
}

// countingReader is a body of spaces that never ends.
type countingReader struct{ n int }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	r.n += len(p)
	return len(p), nil
}

// TestPoolDropsLargeBuffers: a buffer that grew past maxPooledBytes is
// left to the collector. (Put then Get on one goroutine hands back what
// was put, when anything was; the race detector makes the pool drop at
// random, which can only make this pass.)
func TestPoolDropsLargeBuffers(t *testing.T) {
	putBuf(&buffer{b: make([]byte, 0, maxPooledBytes+1)})
	if got := getBuf(); cap(got.b) > maxPooledBytes {
		t.Errorf("the pool kept a buffer of %d bytes, over its %d", cap(got.b), maxPooledBytes)
	}
	kept := &buffer{b: make([]byte, 100, maxPooledBytes)}
	putBuf(kept)
	if len(kept.b) != 0 {
		t.Errorf("a pooled buffer keeps %d bytes of its last use", len(kept.b))
	}
}

// FuzzSnapshotText: whatever a symbol holds, the text a snapshot renders
// for its wme is the JSON string encoding/json prints for WME.String,
// and it decodes back to that text.
func FuzzSnapshotText(f *testing.F) {
	for _, s := range []string{"b1", "", "a&b", `"q"`, `a\b`, "é", "<x>", "a\x01\n\t\b\f\rz", "\u2028\u2029", "\xff\xfe", "\ufffd", "ok\x7f", strings.Repeat("<", 300)} {
		f.Add(s)
	}
	layout := ops5.NewLayout(0, "c", "v")
	f.Fuzz(func(t *testing.T, s string) {
		for _, w := range []*ops5.WME{ops5.NewWME(s, "v", ops5.S(s), s, 1.5), layout.Conform(ops5.NewWME("c", "v", ops5.S(s)))} {
			text := w.String()
			want, err := json.Marshal(text)
			if err != nil {
				t.Fatal(err)
			}
			got := append([]byte(`{"text":"`), want...)[:len(`{"text":"`)] // a prefix to keep, room that was written before
			from := len(got)
			got = append(escapeTail(w.AppendText(got), from), '"')
			if string(got[:from]) != `{"text":"` || string(got[from-1:]) != string(want) {
				t.Fatalf("%q renders as %s, encoding/json prints %s", text, got, want)
			}
			if via := appendJSONString(nil, text); string(via) != string(want) {
				t.Fatalf("appendJSONString(%q) = %s, encoding/json prints %s", text, via, want)
			}
			var back string
			if err := json.Unmarshal(got[from-1:], &back); err != nil || (utf8.ValidString(text) && back != text) {
				t.Fatalf("%q rendered as %s decodes to %q (%v)", text, got, back, err)
			}
		}
	})
}

// FuzzRequestBody: arbitrary bytes as the body of every POST endpoint
// never panic a handler and are answered with one of the statuses the
// protocol has for a body — and always with JSON.
func FuzzRequestBody(f *testing.F) {
	for _, s := range []string{"", "{}", `{"seed":true}`, `{"wmes":"(item ^name x ^state raw)"}`, `{"id":1}`, `{"max_cycles":2}`,
		`[{"op":"assert","wmes":"(item ^name y ^state raw)"},{"op":"run"},{"op":"retract","id":2}]`,
		`{"id":1} trailing`, `{"wmes":"(oops"}`, `{"wmes":7}`, "[", "\xff", `{"id":1e99}`, `null`, `[null]`, " "} {
		f.Add([]byte(s))
	}
	srv, err := New(Config{
		Compiled: compileT(f, testProg),
		Workload: workloads.NamedProgram{Name: "test", WMEs: testWMEs(2)},
	})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	allowed := map[int]bool{200: true, 201: true, 400: true, 404: true, 413: true}
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func(path string, body []byte) (int, []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			if !allowed[rec.Code] || !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("POST %s %q: %d %s", path, body, rec.Code, rec.Body)
			}
			return rec.Code, rec.Body.Bytes()
		}
		// A session of this input's own to aim at, and the input as an
		// open: both closed again, so the table stays small.
		var target, fuzzed openResponse
		_, reply := post("/v1/sessions", []byte(`{"seed":true}`))
		if err := json.Unmarshal(reply, &target); err != nil || target.SessionID == "" {
			t.Fatalf("open: %s", reply)
		}
		if st, reply := post("/v1/sessions", body); st == 201 {
			if err := json.Unmarshal(reply, &fuzzed); err != nil || !srv.sessions.close(fuzzed.SessionID) {
				t.Fatalf("open with %q: %s", body, reply)
			}
		}
		for _, op := range []string{"assert", "retract", "batch", "run"} {
			post("/v1/sessions/"+target.SessionID+"/"+op, body)
			post("/v1/sessions/gone/"+op, body)
		}
		if !srv.sessions.close(target.SessionID) {
			t.Fatalf("session %s vanished", target.SessionID)
		}
	})
}

// nullWriter is a ResponseWriter that keeps nothing and, reused,
// allocates nothing, so that what AllocsPerRun counts is the mux and the
// handler. (httptest's recorder makes a header map, a buffer and a copy
// of the headers per reply: the standard library's share again, which
// these pins are here to leave out.)
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// replayed is a request that can be served any number of times: the
// body rewinds.
type replayed struct {
	req  *http.Request
	body *bytes.Reader
	text []byte
}

func newReplayed(method, path, body string) *replayed {
	r := &replayed{body: bytes.NewReader(nil), text: []byte(body)}
	r.req = httptest.NewRequest(method, path, nil)
	r.req.Body = io.NopCloser(r.body)
	return r
}

func (r *replayed) serve(t *testing.T, h http.Handler, w *nullWriter, want int) {
	r.body.Reset(r.text)
	clear(w.h)
	w.status = 0
	h.ServeHTTP(w, r.req)
	if w.status != want {
		t.Fatalf("%s %s: status %d, want %d", r.req.Method, r.req.URL.Path, w.status, want)
	}
}

// TestHandlerAllocs pins what each request of a served session
// allocates between the mux and the reply, warm, where net/http's
// connection, request and response are not in the count. Every bound is
// a sum of named parts, counted on go1.24 from a profile that samples
// every allocation; none is rounded up.
func TestHandlerAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops at random under the race detector")
	}
	const (
		runs = 50
		// The mux allocates the match list of a pattern with a wildcard.
		route = 1
		// A JSON body costs six however small: http.MaxBytesReader, the
		// request struct (it escapes into encoding/json), and inside
		// json.Unmarshal the decode state, its scanner's stack, and an
		// error context with a field stack once a field is set.
		body = 6
	)
	blocks := func(n int) *Server {
		srv, err := New(Config{
			Compiled: compileT(t, workloads.BlocksWorld),
			Workload: workloads.NamedProgram{Name: "blocks", WMEs: workloads.BlocksWorldWMEs(n)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := blocks(8)
	h := srv.Handler()
	w := &nullWriter{h: http.Header{}}
	seed := float64(len(srv.seed))
	if seed != 16 {
		t.Fatalf("the 8-block tower is %v wmes, want 16", seed)
	}
	pin := func(what string, got, want float64) {
		t.Helper()
		t.Logf("%s: %v allocations", what, got)
		if got > want {
			t.Errorf("%s allocates %v times, want at most %v", what, got, want)
		}
	}

	// A seeded open and the close of the session it opened. The open
	// allocates the session and its id and the list Assert returns the
	// seed in; nothing is parsed, and the seed's laid-out copies refill
	// rows the pooled session's last tenant left (engine.Session.Reset):
	// it reads 10 (26 while every copy was an allocation). The close
	// shelves the session and allocates nothing of its own.
	open := newReplayed("POST", "/v1/sessions", `{"seed":true}`)
	closes := make([]*replayed, 2*(runs+1)+1)
	toHalt := make([]*replayed, len(closes))
	for i := range closes {
		closes[i] = newReplayed("DELETE", fmt.Sprintf("/v1/sessions/s%d", i+1), "")
		toHalt[i] = newReplayed("POST", fmt.Sprintf("/v1/sessions/s%d/run", i+1), `{}`)
	}
	next := 0
	pin("a seeded open and its close", testing.AllocsPerRun(runs, func() {
		open.serve(t, h, w, 201)
		closes[next].serve(t, h, w, 200)
		next++
	}), body+2+1+route)

	// The same with a run to the halt between them, on a pooled session:
	// 21 firings whose modifies make 48 wmes, each into a row a deleted
	// wme or the last tenant left. Everything else a firing touches — the
	// deltas and their arrays, the conflict set's members and their time
	// tags, the tokens — is recycled or carved from storage the pooled
	// session kept, so the run allocates its request and nothing more. It
	// reads 15 (81 while each made wme was an allocation and the members
	// came from chunks, of which a run started at most two; 82 while a
	// delta carried its own time tags).
	pin("a seeded open, its run to the halt and its close", testing.AllocsPerRun(runs, func() {
		open.serve(t, h, w, 201)
		toHalt[next].serve(t, h, w, 200)
		closes[next].serve(t, h, w, 200)
		next++
	}), (body+2+1+route)+(route+body))
	if got := srv.fired.Value(); got != 21*(runs+1) {
		t.Fatalf("%d runs of the 8-block tower fired %d times, want 21 each", runs+1, got)
	}

	// One long-lived session for the rest.
	open.serve(t, h, w, 201)
	sid := fmt.Sprintf("/v1/sessions/s%d", next+1)

	// An assert of two wmes: the text out of the JSON; the parse (a
	// parser, a lexer, per wme the wme and its attribute list, and the
	// list grown twice); the two laid-out copies, one chunk of rows
	// (engine.Session.Assert), and their list. It reads 18 (19 while each
	// copy was an allocation of its own).
	assert := newReplayed("POST", sid+"/assert", `{"wmes":"(block ^name x1 ^on table ^clear yes) (block ^name y2 ^on table ^clear yes)"}`)
	pin("an assert of two wmes", testing.AllocsPerRun(runs, func() { assert.serve(t, h, w, 200) }),
		route+body+1+(2+2*2+2)+(1+1))

	// A retract, found or not, allocates nothing of its own.
	retract := newReplayed("POST", sid+"/retract", `{"id":9999}`)
	pin("a retract", testing.AllocsPerRun(runs, func() { retract.serve(t, h, w, 200) }), route+body)

	// A snapshot does not pay per wme: a tower of 32 blocks renders in
	// as many allocations as one of 8 — the list the conflict set is
	// sorted in, when it is not empty, and nothing per wme or per
	// instantiation.
	var counts [2]float64
	for i, n := range []int{8, 32} {
		srv := blocks(n)
		h := srv.Handler()
		newReplayed("POST", "/v1/sessions", `{"seed":true}`).serve(t, h, w, 201)
		newReplayed("POST", "/v1/sessions/s1/run", `{"max_cycles":5}`).serve(t, h, w, 200)
		snapshot := newReplayed("GET", "/v1/sessions/s1/snapshot", "")
		counts[i] = testing.AllocsPerRun(runs, func() { snapshot.serve(t, h, w, 200) })
		pin(fmt.Sprintf("a snapshot of the %d-block tower (%d wmes)", n, 2*n), counts[i], route+1)
	}
	if counts[0] != counts[1] {
		t.Errorf("a snapshot of 64 wmes allocates %v times and one of 16 %v: the count moves with working memory", counts[1], counts[0])
	}
}
