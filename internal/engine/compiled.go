package engine

import (
	"fmt"
	"io"
	"sync"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// This file implements the compiled / per-session state split that the
// multi-tenant server (internal/server, cmd/ops5d) is built on: one
// Compiled holds everything that is immutable once a program is
// compiled — the Rete network and production metadata — and any
// number of Sessions share it read-only,
// each owning only its mutable half (working memory, token memories,
// conflict set, counters). engine.New compiles a private Compiled and
// opens its single session.

// CompileOptions control program compilation into a Compiled.
type CompileOptions struct {
	// Variant names the network variant to compile — one of
	// rete.Variants(): "shared" (or empty, the default), "unshared",
	// "candc", or "bounded". The single spelling shared with the
	// ops5run/ops5d -variant flag and the difftest matrix's row names.
	Variant string
}

// Compiled is the immutable, shareable half of an OPS5 interpreter: a
// compiled Rete network plus per-production metadata. It is safe for
// any number of concurrent Sessions to match over one Compiled, because
// matching only reads the network; all mutable match state (token
// memories, working memory, conflict set) lives in each Session.
//
// The one exception is dynamic production management (excise and live
// production addition), which rewrites the shared network: sessions
// opened with NewSession refuse it (see Session.ExciseProduction), and
// only the private single-session engines made by New/NewWithNetwork
// allow it.
type Compiled struct {
	prog *ops5.Program
	net  *rete.Network
}

// Compile compiles a program into a shareable Compiled.
func Compile(prog *ops5.Program, opts CompileOptions) (*Compiled, error) {
	net, err := rete.CompileVariant(prog.Productions, opts.Variant)
	if err != nil {
		return nil, err
	}
	return NewCompiled(prog, net)
}

// NewCompiled wraps a pre-compiled (possibly transformed) network for
// the same program as a shareable Compiled.
func NewCompiled(prog *ops5.Program, net *rete.Network) (*Compiled, error) {
	for _, p := range prog.Productions {
		if net.Prods[p.Name] == nil {
			return nil, fmt.Errorf("engine: network lacks production %q", p.Name)
		}
	}
	return &Compiled{prog: prog, net: net}, nil
}

// Program returns the compiled program.
func (c *Compiled) Program() *ops5.Program { return c.prog }

// Network returns the compiled Rete network (shared, read-only during
// matching).
func (c *Compiled) Network() *rete.Network { return c.net }

// SessionOptions configure one Session over a Compiled. The zero value
// is a ready default: LEX strategy, default bucket count, discarded
// output.
type SessionOptions struct {
	// Strategy is the conflict-resolution strategy (default LEX).
	Strategy Strategy
	// NBuckets sizes the session's hash-table memories (default
	// rete.DefaultNBuckets; 1 gives linear memories).
	NBuckets int
	// Listener observes match activity (e.g. a trace recorder).
	Listener rete.Listener
	// Output receives the text of write actions (default: discarded).
	Output io.Writer
	// Matcher, when non-nil, supplies the match implementation (e.g. a
	// parallel.Runtime compiled over the same shared network); NBuckets
	// and Listener are then ignored — configure them on the supplied
	// matcher. A supplied matcher cannot be pooled (Session.Reset
	// reports false unless it implements Reset()).
	Matcher MatchApplier
	// NewMatcher, when non-nil (and Matcher nil), constructs a fresh
	// match implementation per session — the pooling-compatible form of
	// Matcher, e.g. a parallel.Runtime over the shared network
	// (server.Config.NewMatcher hands it through). Sessions whose matcher
	// does not implement Reset() are closed on SessionPool.Put rather
	// than shelved, so per-session worker goroutines never leak.
	NewMatcher func() MatchApplier
	// Watch sets the OPS5 watch level written to Output: 1 prints
	// production firings with their time tags; 2 also prints every
	// working-memory change.
	Watch int
}

// NewSession opens a fresh session over the shared compiled network:
// its own sequential matcher (own token memories) unless opts.Matcher
// supplies a different match implementation, empty working memory, and
// an empty conflict set. Sessions are independent; each one is
// single-threaded (callers serialize access per session, as
// internal/server does with a per-session mutex), but any number of
// sessions may run concurrently over one Compiled.
func (c *Compiled) NewSession(opts SessionOptions) *Session {
	if opts.Output == nil {
		opts.Output = io.Discard
	}
	matcher := opts.Matcher
	if matcher == nil && opts.NewMatcher != nil {
		matcher = opts.NewMatcher()
	}
	if matcher == nil {
		matcher = rete.NewMatcher(c.net, rete.MatcherOptions{NBuckets: opts.NBuckets, Listener: opts.Listener})
	}
	return &Session{
		c:        c,
		matcher:  matcher,
		opts:     opts,
		shared:   true,
		conflict: newConflictSet(),
		nextID:   1,
		timetag:  1,
	}
}

// SessionPool recycles Sessions over one Compiled: Put resets a
// session's mutable state (working memory, token memories, conflict
// set, counters) and shelves it; Get reuses a shelved session or opens
// a fresh one. The multi-tenant server uses it so steady-state
// open/close churn does not recompile or reallocate hash tables.
//
// Pooled sessions must not share one matcher instance: NewSessionPool
// panics when opts.Matcher is set. A per-session factory
// (opts.NewMatcher) is fine — each Get that misses the shelf builds a
// fresh matcher, and Put closes sessions whose matcher cannot Reset.
type SessionPool struct {
	c    *Compiled
	opts SessionOptions

	mu   sync.Mutex
	free []*Session
}

// NewSessionPool creates a pool of sessions over c with the given
// per-session options.
func NewSessionPool(c *Compiled, opts SessionOptions) *SessionPool {
	if opts.Matcher != nil {
		panic("engine: SessionPool cannot share a caller-supplied Matcher across sessions")
	}
	return &SessionPool{c: c, opts: opts}
}

// Get returns a clean session: a reset pooled one if available,
// otherwise a fresh one.
func (p *SessionPool) Get() *Session {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return p.c.NewSession(p.opts)
}

// Put resets s and shelves it for reuse. Sessions whose matcher cannot
// be reset are dropped (never shelved dirty).
func (p *SessionPool) Put(s *Session) {
	if s == nil {
		return
	}
	if !s.Reset() {
		// Not reusable (matcher without Reset): release its resources —
		// a per-session parallel runtime's workers must not leak.
		s.Close()
		return
	}
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Len returns the number of shelved sessions.
func (p *SessionPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
