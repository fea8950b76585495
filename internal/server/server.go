// Package server is the multi-tenant OPS5 rule-engine service behind
// cmd/ops5d. One engine.Compiled — the immutable Rete network plus
// production metadata — is compiled at startup and shared read-only by
// every session; each tenant gets its own engine.Session (working
// memory, conflict set, counters) recycled through an
// engine.SessionPool.
//
// The HTTP surface is JSON over these routes:
//
//	POST   /v1/sessions                open a session ({"seed":true} loads
//	                                   the workload's default wmes; "wmes"
//	                                   loads explicit OPS5 wme source)
//	DELETE /v1/sessions/{id}           close a session (recycled to pool)
//	POST   /v1/sessions/{id}/assert    {"wmes": "(...)"} -> {"ids": [...]}
//	POST   /v1/sessions/{id}/retract   {"id": N} -> {"removed": bool}
//	POST   /v1/sessions/{id}/run       {"max_cycles": N} -> fired/halted
//	POST   /v1/sessions/{id}/batch     [{op...}] -> per-op results
//	GET    /v1/sessions/{id}/snapshot  full working memory + conflict set
//	GET    /v1/stats                   server-level counters
//	GET    /metrics                    obs.Registry JSON snapshot
//	GET    /healthz                    200 ok / 503 draining
//
// Admission control: request execution is bounded by MaxInflight slots;
// arrivals beyond that wait in a queue bounded by QueueDepth, and
// overflow is rejected with 429 so a burst degrades crisply instead of
// stacking goroutines. Drain() (SIGTERM in ops5d) stops admission with
// 503 and waits for in-flight requests to finish.
//
// Bodies. A request body is at most 1 MiB (maxBodyBytes); a longer one
// is answered 413 and is never buffered past the cap. A body is empty
// (or JSON whitespace), which leaves the request at its defaults, or
// exactly one JSON value: bytes after the value are a 400, where the
// streaming decoder this package used before let them by. Every error
// is the JSON document {"error": "..."}.
//
// A request allocates what its reply carries (wire.go). Each body, in
// and out and at both ends — Client included — passes through one
// pooled buffer: read whole, decoded from its bytes; replies rendered
// into it and written with one Write. Replies of fixed shape are
// appended by hand, byte for byte what encoding/json prints for the
// structs the Client decodes them into. The workload's seed is parsed
// and laid out once, in New, and a seeded open asserts that slice. A
// snapshot is rendered under the session lock straight from the rows
// the session matches on (engine.Session.LiveWMEs): serialisation to
// memory happens under the lock, nothing is copied first, and the lock
// is released before the network write.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"

	"mpcrete/internal/engine"
	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/workloads"
)

// Config parameterizes a Server.
type Config struct {
	// Compiled is the shared immutable program; required.
	Compiled *engine.Compiled
	// Workload optionally names the served program and provides the
	// default wme source for {"seed": true} session opens.
	Workload workloads.NamedProgram
	// MaxSessions bounds live sessions (default 4096). Opens beyond it
	// are rejected with 429.
	MaxSessions int
	// MaxInflight bounds concurrently executing requests (default
	// 2*GOMAXPROCS).
	MaxInflight int
	// QueueDepth bounds requests waiting for an inflight slot (default
	// 256); overflow is rejected with 429.
	QueueDepth int
	// DefaultMaxCycles is the run budget when a run request does not
	// set max_cycles (default 1000).
	DefaultMaxCycles int
	// Metrics receives server counters and backs /metrics; a private
	// registry is created when nil.
	Metrics *obs.Registry
	// NewMatcher, when non-nil, constructs each session's match
	// implementation (e.g. a parallel runtime with the adaptive
	// rebalancer armed — ops5d -parallel/-rebalance). Sessions whose
	// matcher cannot reset are closed on release instead of pooled.
	NewMatcher func() engine.MatchApplier
}

// Server is the multi-tenant session service. Create with New, mount
// via Handler.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	sessions *sessionTable
	adm      *admission
	// seed is Config.Workload.WMEs parsed once and laid out by the
	// compiled network's layouts; a seeded open asserts it as it is
	// (Session.Assert copies what it is given, one allocation per wme
	// already in its layout). It stays valid because the server's
	// sessions are shared ones, under which the network — and so every
	// layout — is never rewritten. Read-only.
	seed []*ops5.WME

	reqs      *obs.Counter
	rejected  *obs.Counter
	opened    *obs.Counter
	closed    *obs.Counter
	asserts   *obs.Counter
	fired     *obs.Counter
	liveGauge *obs.Gauge
}

// New builds a server over a compiled program.
func New(cfg Config) (*Server, error) {
	if cfg.Compiled == nil {
		return nil, errors.New("server: Config.Compiled is required")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 4096
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.DefaultMaxCycles <= 0 {
		cfg.DefaultMaxCycles = 1000
	}
	if cfg.Metrics == nil {
		// The server's stats endpoint reads these counters, so a
		// registry always exists even when the caller wants none.
		cfg.Metrics = obs.NewRegistry()
	}
	seed, err := ops5.ParseWMEs(cfg.Workload.WMEs)
	if err != nil {
		return nil, fmt.Errorf("server: workload %q: seed wmes: %w", cfg.Workload.Name, err)
	}
	for i, w := range seed {
		seed[i] = cfg.Compiled.Network().Conform(w)
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		sessions: newSessionTable(cfg.Compiled, cfg.MaxSessions, cfg.NewMatcher),
		adm:      newAdmission(cfg.MaxInflight, cfg.QueueDepth),
		seed:     seed,

		reqs:      cfg.Metrics.Counter("server.requests"),
		rejected:  cfg.Metrics.Counter("server.rejected"),
		opened:    cfg.Metrics.Counter("server.sessions_opened"),
		closed:    cfg.Metrics.Counter("server.sessions_closed"),
		asserts:   cfg.Metrics.Counter("server.wmes_asserted"),
		fired:     cfg.Metrics.Counter("server.instantiations_fired"),
		liveGauge: cfg.Metrics.Gauge("server.sessions_live"),
	}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/sessions", s.admitted(s.handleOpen))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.admitted(s.handleClose))
	s.mux.HandleFunc("POST /v1/sessions/{id}/assert", s.admitted(s.handleAssert))
	s.mux.HandleFunc("POST /v1/sessions/{id}/retract", s.admitted(s.handleRetract))
	s.mux.HandleFunc("POST /v1/sessions/{id}/run", s.admitted(s.handleRun))
	s.mux.HandleFunc("POST /v1/sessions/{id}/batch", s.admitted(s.handleBatch))
	s.mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.admitted(s.handleSnapshot))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting requests (503) and blocks until every in-flight
// request has finished. Open sessions are then closed.
func (s *Server) Drain() {
	s.adm.drain()
	s.sessions.closeAll()
	s.liveGauge.Set(0)
}

// admitted wraps a handler in admission control: draining -> 503, queue
// overflow -> 429, otherwise the handler runs holding an inflight slot.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reqs.Inc()
		switch s.adm.acquire(r.Context()) {
		case admitOK:
			defer s.adm.release()
			h(w, r)
		case admitDraining:
			s.rejected.Inc()
			httpError(w, http.StatusServiceUnavailable, "draining")
		case admitOverflow:
			s.rejected.Inc()
			httpError(w, http.StatusTooManyRequests, "request queue full")
		case admitCanceled:
			httpError(w, 499, "client canceled") // nginx's non-standard code
		}
	}
}

type openRequest struct {
	// Seed loads the configured workload's default initial wmes.
	Seed bool `json:"seed,omitempty"`
	// WMEs is OPS5 wme source to load instead of (or after) the seed.
	WMEs string `json:"wmes,omitempty"`
}

type openResponse struct {
	SessionID string `json:"session_id"`
	Asserted  []int  `json:"asserted,omitempty"`
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req openRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var wmes []*ops5.WME
	if req.WMEs != "" {
		// Parsed on its own, so an error's line and column point into
		// the text the client sent.
		var err error
		if wmes, err = ops5.ParseWMEs(req.WMEs); err != nil {
			httpError(w, http.StatusBadRequest, "parse wmes: %v", err)
			return
		}
	}
	if req.Seed {
		// The seed first, then the request's own: the ids and time tags a
		// client sees are those of the two texts parsed as one. Clipped,
		// the seed is copied when there is something to append and is
		// used as it is when there is not.
		wmes = append(slices.Clip(s.seed), wmes...)
	}
	sess, err := s.sessions.open()
	if err != nil {
		s.rejected.Inc()
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	s.opened.Inc()
	s.liveGauge.Set(float64(s.sessions.live()))
	buf := getBuf()
	defer putBuf(buf)
	buf.b = appendJSONString(append(buf.b, `{"session_id":`...), sess.id)
	if len(wmes) > 0 {
		buf.b = append(buf.b, `,"asserted":`...)
		if !sess.do(func(eng *engine.Session) { buf.b = appendIDs(buf.b, eng.Assert(wmes...)) }) {
			httpError(w, http.StatusNotFound, "session closed")
			return
		}
		s.asserts.Add(int64(len(wmes)))
	}
	buf.b = append(buf.b, "}\n"...)
	writeBody(w, http.StatusCreated, buf.b)
}

// closedReply is the whole reply to a close.
var closedReply = []byte("{\"closed\":true}\n")

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.close(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	s.closed.Inc()
	s.liveGauge.Set(float64(s.sessions.live()))
	writeBody(w, http.StatusOK, closedReply)
}

type assertRequest struct {
	WMEs string `json:"wmes"`
}

type assertResponse struct {
	IDs []int `json:"ids"`
}

func (s *Server) handleAssert(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req assertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wmes, err := ops5.ParseWMEs(req.WMEs)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parse wmes: %v", err)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.b = append(buf.b, `{"ids":`...)
	if !sess.do(func(eng *engine.Session) { buf.b = appendIDs(buf.b, eng.Assert(wmes...)) }) {
		httpError(w, http.StatusNotFound, "session closed")
		return
	}
	s.asserts.Add(int64(len(wmes)))
	buf.b = append(buf.b, "}\n"...)
	writeBody(w, http.StatusOK, buf.b)
}

type retractRequest struct {
	ID int `json:"id"`
}

func (s *Server) handleRetract(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req retractRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var removed bool
	if !sess.do(func(eng *engine.Session) { removed = eng.Retract(req.ID) }) {
		httpError(w, http.StatusNotFound, "session closed")
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.b = append(buf.b, `{"removed":`...)
	buf.b = strconv.AppendBool(buf.b, removed)
	buf.b = append(buf.b, "}\n"...)
	writeBody(w, http.StatusOK, buf.b)
}

type runRequest struct {
	MaxCycles int `json:"max_cycles,omitempty"`
}

// RunResult is the outcome of a run (or batch run) operation.
type RunResult struct {
	Fired      int  `json:"fired"`
	TotalFired int  `json:"total_fired"`
	Halted     bool `json:"halted"`
	// CycleLimit reports that the run stopped at the cycle budget with
	// the conflict set still non-empty.
	CycleLimit bool `json:"cycle_limit,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req runRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var (
		res RunResult
		err error
	)
	if !sess.do(func(eng *engine.Session) { res, err = s.run(eng, req.MaxCycles) }) {
		httpError(w, http.StatusNotFound, "session closed")
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "run: %v", err)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.b = append(appendRunResult(buf.b, res), '\n')
	writeBody(w, http.StatusOK, buf.b)
}

// run runs MRA cycles on an engine the caller has locked via sess.do.
func (s *Server) run(eng *engine.Session, maxCycles int) (RunResult, error) {
	if maxCycles <= 0 {
		maxCycles = s.cfg.DefaultMaxCycles
	}
	fired, err := eng.RunCycles(maxCycles)
	res := RunResult{Fired: fired, TotalFired: eng.Fired(), Halted: eng.Halted()}
	s.fired.Add(int64(fired))
	if err == engine.ErrCycleLimit {
		res.CycleLimit = true
		err = nil
	}
	return res, err
}

// BatchOp is one operation in a batch request. Op is "assert",
// "retract", or "run"; the other fields parameterize it as in the
// single-op endpoints.
type BatchOp struct {
	Op        string `json:"op"`
	WMEs      string `json:"wmes,omitempty"`
	ID        int    `json:"id,omitempty"`
	MaxCycles int    `json:"max_cycles,omitempty"`
}

// BatchOpResult is the outcome of one BatchOp. Exactly the fields of
// the corresponding single-op response are set; Err reports a per-op
// failure (later ops still run).
type BatchOpResult struct {
	IDs     []int      `json:"ids,omitempty"`
	Removed *bool      `json:"removed,omitempty"`
	Run     *RunResult `json:"run,omitempty"`
	Err     string     `json:"err,omitempty"`
}

// handleBatch executes a sequence of ops under ONE session lock
// acquisition and one HTTP round trip — the request-batching path for
// chatty clients.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var ops []BatchOp
	if !decodeBody(w, r, &ops) {
		return
	}
	results := make([]BatchOpResult, len(ops))
	if !sess.do(func(eng *engine.Session) {
		for i, op := range ops {
			switch op.Op {
			case "assert":
				wmes, err := ops5.ParseWMEs(op.WMEs)
				if err != nil {
					results[i].Err = fmt.Sprintf("parse wmes: %v", err)
					continue
				}
				for _, a := range eng.Assert(wmes...) {
					results[i].IDs = append(results[i].IDs, a.ID)
				}
				s.asserts.Add(int64(len(results[i].IDs)))
			case "retract":
				removed := eng.Retract(op.ID)
				results[i].Removed = &removed
			case "run":
				res, err := s.run(eng, op.MaxCycles)
				if err != nil {
					results[i].Err = err.Error()
					continue
				}
				results[i].Run = &res
			default:
				results[i].Err = fmt.Sprintf("unknown op %q", op.Op)
			}
		}
	}) {
		httpError(w, http.StatusNotFound, "session closed")
		return
	}
	writeJSON(w, http.StatusOK, results)
}

// SnapshotWME is the wire form of one working-memory element.
type SnapshotWME struct {
	ID      int    `json:"id"`
	TimeTag int    `json:"time_tag"`
	Text    string `json:"text"` // OPS5 source syntax
}

// SnapshotResponse is the wire form of an engine.Snapshot.
type SnapshotResponse struct {
	WMEs        []SnapshotWME         `json:"wmes"`
	ConflictSet []engine.SnapshotInst `json:"conflict_set"`
	Fired       int                   `json:"fired"`
	Halted      bool                  `json:"halted"`
	NextTimeTag int                   `json:"next_time_tag"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	// The reply is rendered to memory under the session lock, straight
	// from the rows the session matches on, so nothing is copied first;
	// the lock is released before the network write.
	buf := getBuf()
	defer putBuf(buf)
	if !sess.do(func(eng *engine.Session) { buf.b = appendSnapshot(buf.b, eng) }) {
		httpError(w, http.StatusNotFound, "session closed")
		return
	}
	buf.b = append(buf.b, '\n')
	writeBody(w, http.StatusOK, buf.b)
}

// Stats is the /v1/stats document.
type Stats struct {
	Workload        string `json:"workload,omitempty"`
	Productions     int    `json:"productions"`
	SessionsLive    int    `json:"sessions_live"`
	SessionsOpened  int64  `json:"sessions_opened"`
	SessionsClosed  int64  `json:"sessions_closed"`
	PooledSessions  int    `json:"pooled_sessions"`
	Requests        int64  `json:"requests"`
	Rejected        int64  `json:"rejected"`
	WMEsAsserted    int64  `json:"wmes_asserted"`
	InstsFired      int64  `json:"instantiations_fired"`
	InflightWaiting int64  `json:"inflight_waiting"`
	Draining        bool   `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Stats{
		Workload:        s.cfg.Workload.Name,
		Productions:     len(s.cfg.Compiled.Program().Productions),
		SessionsLive:    s.sessions.live(),
		SessionsOpened:  s.opened.Value(),
		SessionsClosed:  s.closed.Value(),
		PooledSessions:  s.sessions.pooled(),
		Requests:        s.reqs.Value(),
		Rejected:        s.rejected.Value(),
		WMEsAsserted:    s.asserts.Value(),
		InstsFired:      s.fired.Value(),
		InflightWaiting: s.adm.waitingNow(),
		Draining:        s.adm.draining(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = jsonContentType
	if err := s.cfg.Metrics.WriteJSON(w); err != nil {
		httpError(w, http.StatusInternalServerError, "metrics: %v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.adm.draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	sess := s.sessions.get(r.PathValue("id"))
	if sess == nil {
		httpError(w, http.StatusNotFound, "no such session")
		return nil, false
	}
	return sess, true
}
