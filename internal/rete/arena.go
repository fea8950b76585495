package rete

import (
	"slices"

	"mpcrete/internal/ops5"
)

// arenaChunkLen is the length of an arena region that no phase has
// sized: a token's run of handles is carved from one, and a token is
// nothing else, so a region amortizes the allocation of ~300 tokens.
const arenaChunkLen = 1024

// arena amortizes the allocation of short runs for a single Processor:
// it hands out runs carved from the front of one region, and when a run
// does not fit it takes a fresh region, at least arenaChunkLen long, and
// drops its own reference to the old, whose lifetime is from then on
// the lifetime of the runs carved from it. A match cycle therefore
// costs O(runs/region) allocations instead of one per run.
//
// A Processor owns three, beside the two regions (memory.go) that the
// buckets it grows take their storage from, and each arena lends to
// one kind of reader.
// Tokens — runs of wme handles, which the collector never scans — come
// from two of them. The token arena lends to the memories: tokens that
// a memory may store live as long as the wmes they cover, and it is
// rewound only by Processor.Reset, with the memories. The phase arena
// lends to the phase itself: tokens made under a Delete activation —
// they exist to find the entries they remove and to carry the delete
// downstream — and tokens that only production nodes receive, which
// Processor.Build reads once and resolves out of. The lent arena
// lends to whoever receives the phase's result: every delta's WMEs
// array (Build), which the absorbing conflict set reads, copying what
// it keeps, and nobody after. So everything the phase arena or the lent
// arena hands out is dead once the phase's result has been absorbed,
// and an owner that can show that much calls Processor.BeginPhase to
// rewind them.
//
// A rewind takes everything back and carves from the front of the
// region again; a phase that outgrew its region is given, at that
// rewind, one region as large as the whole phase. So a rewound arena
// holds the storage of its largest phase and steady-state phases
// allocate nothing, however wide. An arena that is never rewound keeps
// nothing but its current region.
//
// The arenas are single-owner, like the Processor that embeds them: the
// sequential Matcher and each parallel worker own theirs.
type arena[T int32 | *ops5.WME] struct {
	buf  []T // the current region; buf[:len(buf)] is handed out
	used int // handed out since the last rewind, across regions
}

// poisonRewind makes rewind overwrite every run it recycles with the
// poison — handle 0 in a token, poisonWME in a lent array — and makes a
// Table quarantine the handles it frees, so that a token used after its
// arena was rewound, or after its wme was deleted, shows up as a wrong
// conflict-set delta or a sentinel in a stored entry rather than as a
// coincidence that happens to pass. Tests set it (PoisonRewinds);
// nothing else does.
var poisonRewind bool

// poisonWME is what a rewound token, a rewound lent array and a freed
// handle read as under poisonRewind, and what handle 0 always resolves
// to. No working memory holds a wme with a negative id.
var poisonWME = &ops5.WME{ID: -1, TimeTag: -1, Class: "rewound-token"}

// PoisonRewinds is the test hook behind poisonRewind for the packages
// whose tests drive processors they cannot reach into (engine,
// parallel, transport, difftest): it turns the poison on and returns
// the function that turns it off again. Call both while no matcher is
// running.
func PoisonRewinds() (restore func()) {
	poisonRewind = true
	return func() { poisonRewind = false }
}

// Retire is the poison hook of an owner that recycles what its match
// phases retire — working-memory rows (Rows) and the engine's
// conflict-set members — and reports whether the owner may reuse them. Without the
// poison it may, and Retire does nothing. Under PoisonRewinds it may
// not: each of rows is scrubbed to read as poisonWME, and the owner
// quarantines rows and records alike, so that a reader that kept one
// past its retirement reads a sentinel instead of a coincidence.
func Retire(rows ...*ops5.WME) (reuse bool) {
	if !poisonRewind {
		return true
	}
	for _, w := range rows {
		*w = *poisonWME
	}
	return false
}

// Rows is a working memory's supply of wme rows: per layout id, the
// rows of retired wmes, which Row refills before it allocates. The
// engine's session draws every wme it holds from one, and a wire
// worker's mirror draws every definition from one, so neither holds
// more rows than its largest working memory and a few per layout.
type Rows [][]*ops5.WME

// Retire puts the row of a wme nothing reads any more on its layout's
// free list. Under the poison (Retire) it is scrubbed to read as the
// sentinel instead, and never refilled; a loose row is dropped.
func (r *Rows) Retire(w *ops5.WME) {
	l := w.Layout()
	if !Retire(w) || l == nil {
		return
	}
	id := l.ID()
	if id >= len(*r) {
		*r = slices.Grow(*r, id+1-len(*r))[:id+1]
	}
	(*r)[id] = append((*r)[id], w)
}

// Row returns a wme of layout l, the layout of src's class, with src's
// attributes (none for a nil src) and its ID and time tag still to be
// assigned: a free row refilled (Reuse), or, without one, a fresh wme,
// as c.New or c.Conform makes it (one allocation of its own for the
// nil carver).
func (r Rows) Row(c *ops5.Carver, l *ops5.Layout, src *ops5.WME) *ops5.WME {
	if w := r.Reuse(l, src); w != nil {
		return w
	}
	if src == nil {
		return c.New(l)
	}
	return c.Conform(l, src)
}

// Reuse returns a free row of layout l refilled with src's attributes
// (ops5.WME.Refill), or nil when l has none. A free row that cannot be
// refilled is dropped. A batch takes its free rows with Reuse and makes
// the rest by the chunk (ops5.Carver).
func (r Rows) Reuse(l *ops5.Layout, src *ops5.WME) *ops5.WME {
	if l == nil || l.ID() >= len(r) {
		return nil
	}
	free := r[l.ID()]
	if len(free) == 0 {
		return nil
	}
	w := free[len(free)-1]
	free[len(free)-1] = nil
	r[l.ID()] = free[:len(free)-1]
	if !w.Refill(src) {
		return nil
	}
	return w
}

// Scrub blanks every free row, so that none keeps a value of the
// working memory that retired it, and drops the rows that cannot be
// refilled.
func (r Rows) Scrub() {
	for id, free := range r {
		k := 0
		for _, w := range free {
			if w.Refill(nil) {
				free[k] = w
				k++
			}
		}
		clear(free[k:])
		r[id] = free[:k]
	}
}

// carve hands out n elements. The run is full-capacity-capped so an
// append can never bleed into a neighbour's; its contents are whatever
// the region held.
func (ar *arena[T]) carve(n int) []T {
	ar.used += n
	k := len(ar.buf)
	if cap(ar.buf)-k < n {
		ar.buf, k = make([]T, 0, max(n, arenaChunkLen)), 0
	}
	ar.buf = ar.buf[:k+n]
	return ar.buf[k : k+n : k+n]
}

// rewind takes back everything carved since the last rewind. What the
// current region handed out is scrubbed — lent arrays pin no wme, and
// under poisonRewind every recycled run reads as the poison — and a
// phase that outgrew the region leaves one that holds it whole. The
// caller vouches that nothing this arena handed out is still in use.
func (ar *arena[T]) rewind() {
	switch ws, lent := any(ar.buf).([]*ops5.WME); {
	case lent && poisonRewind:
		for i := range ws {
			ws[i] = poisonWME
		}
	case lent || poisonRewind:
		clear(ar.buf) // handle 0 reads as poisonWME
	}
	if ar.used > cap(ar.buf) {
		ar.buf = make([]T, 0, ar.used)
	}
	ar.buf, ar.used = ar.buf[:0], 0
}

// reset is rewind for an arena whose owner starts over
// (Processor.Reset): a region larger than arenaChunkLen is let go, so a
// pooled session does not inherit a wide phase's storage.
func (ar *arena[T]) reset() {
	ar.rewind()
	if cap(ar.buf) > arenaChunkLen {
		ar.buf = nil
	}
}

// newToken carves an n-wide token for nodes to, activated under tag,
// from the arena its lifetime calls for: the phase arena when no node
// of to stores it — a delete token, or one that only production nodes
// receive — and the other otherwise. It is decided per token, not
// compiled in, because adding a production to a live network appends
// successors to existing nodes.
func (p *Processor) newToken(n int, tag Tag, to []*Node) Token {
	if tag == Delete || onlyProductions(to) {
		return Token{H: p.delArena.carve(n)}
	}
	return Token{H: p.arena.carve(n)}
}

// onlyProductions reports whether every node of to is a production
// node.
func onlyProductions(to []*Node) bool {
	for _, s := range to {
		if s.Kind != KindProduction {
			return false
		}
	}
	return true
}

// extend returns a token covering t's wmes plus the wme of handle h,
// for nodes to.
func (p *Processor) extend(t Token, h int32, tag Tag, to []*Node) Token {
	nt := p.newToken(len(t.H)+1, tag, to)
	copy(nt.H, t.H)
	nt.H[len(t.H)] = h
	return nt
}
