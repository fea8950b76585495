package engine

import (
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// API is the session-level interface of a Session, whichever matcher
// runs its match phase: its own sequential rete.Matcher, or a
// parallel.Runtime (SessionOptions.Matcher). The multi-tenant server
// drives tenants through it, and difftest.Check drives every
// engine-level row of its matrix through it — the matcher rows and the
// sessions row's concurrent, pool-recycled sessions alike.
type API interface {
	// Assert schedules wme additions; the returned copies carry their
	// assigned IDs and time tags, and are valid while they are live.
	Assert(wmes ...*ops5.WME) []*ops5.WME
	// Retract schedules deletion of the live wme with the given ID.
	Retract(id int) bool
	// Step runs one MRA cycle; nil when quiescent or halted. The
	// instantiation is valid until the next Step, RunCycles or Close.
	Step() (*Instantiation, error)
	// RunCycles runs MRA cycles up to the limit.
	RunCycles(maxCycles int) (int, error)
	// ConflictSet returns the current instantiations, best-first, valid
	// until the next Step or RunCycles.
	ConflictSet() []*Instantiation
	// Snapshot returns a self-contained copy of the observable state.
	Snapshot() *Snapshot
	// Fired returns the number of instantiations fired so far.
	Fired() int
	// Halted reports whether a halt action has executed.
	Halted() bool
	// Close releases the session's match resources.
	Close() error
}

// compile-time check: *Session implements API.
var _ API = (*Session)(nil)

// SnapshotInst is one conflict-set member in a Snapshot.
type SnapshotInst struct {
	// Key identifies the instantiation (production name + wme IDs).
	Key string `json:"key"`
	// Production is the production's name.
	Production string `json:"production"`
	// TimeTags are the matched wmes' time tags, ascending.
	TimeTags []int `json:"time_tags"`
}

// Snapshot is a self-contained copy of a session's observable state:
// nothing in it aliases session-mutable data, so a caller (e.g. a
// snapshot endpoint) may serialize it after releasing its session lock
// while other requests keep mutating the session.
type Snapshot struct {
	// WMEs are deep copies of the live working memory, sorted by ID.
	WMEs []*ops5.WME
	// ConflictSet lists the current instantiations best-first under the
	// session's strategy.
	ConflictSet []SnapshotInst
	// Fired is the number of instantiations fired so far.
	Fired int
	// Halted reports whether a halt action has executed.
	Halted bool
	// NextTimeTag is the time tag the next asserted wme will receive.
	NextTimeTag int
}

// Snapshot captures the session's observable state as defensive
// copies.
func (e *Session) Snapshot() *Snapshot {
	s := &Snapshot{
		WMEs:        e.WMEs(), // already defensive copies
		Fired:       e.fired,
		Halted:      e.halted,
		NextTimeTag: e.timetag,
	}
	for _, in := range e.ConflictSet() {
		tags := make([]int, len(in.TimeTags))
		copy(tags, in.TimeTags)
		s.ConflictSet = append(s.ConflictSet, SnapshotInst{
			Key:        in.Key(),
			Production: in.Prod.Name,
			TimeTags:   tags,
		})
	}
	return s
}

// matcherCloser is the optional shutdown hook of a match
// implementation (parallel.Runtime implements it; rete.Matcher needs
// none).
type matcherCloser interface{ Close() }

// matcherResetter is the optional reuse hook of a match
// implementation: Reset must return the matcher to its
// freshly-constructed state (empty memories, cycle zero).
type matcherResetter interface{ Reset() }

// Close releases the session's match resources (for a parallel
// matcher, its worker goroutines). Closing twice is a no-op. The
// session must not be used after Close.
func (e *Session) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if c, ok := e.matcher.(matcherCloser); ok {
		c.Close()
	}
	return nil
}

// Reset returns the session to its freshly-opened state — empty
// working memory, empty conflict set, counters and ID/time-tag
// assignment rewound — reusing the matcher's hash-table and arena
// storage, and the last tenant's rows and instantiations, retired and
// scrubbed of its values. It reports false (and resets nothing) when
// the matcher does not support reuse; the SessionPool then drops the
// session instead of shelving it dirty.
func (e *Session) Reset() bool {
	if e.closed {
		return false
	}
	r, ok := e.matcher.(matcherResetter)
	if !ok {
		return false
	}
	r.Reset()
	// Every row is dead now, live or pending (a pending Delete names one
	// of the others), and a free row keeps nothing of this tenant.
	for w := range e.LiveWMEs {
		e.free.Retire(w)
	}
	for _, ch := range e.pending {
		if ch.Tag == rete.Add {
			e.free.Retire(ch.WME)
		}
	}
	e.wm.reset()
	e.conflict.reset()
	// The change buffer keeps its capacity for the next tenant, and none
	// of this one's wmes.
	clear(e.pending)
	e.pending = e.pending[:0]
	e.nextID = 1
	e.timetag = 1
	e.fired = 0
	e.halted = false
	return true
}
