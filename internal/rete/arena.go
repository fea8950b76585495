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
// A Processor owns two, beside the two regions (memory.go) that the
// buckets it grows take their storage from and the store that the
// tokens its memories keep are copied into, and each arena lends to one
// kind of reader.
// The phase arena lends tokens — runs of wme handles, which the
// collector never scans — to the phase itself: every token an
// activation carries, made by a root (RootActivationsInto), a join
// (extend) or the bounded enumerator, and the copy a negative node
// emits of an entry whose count flips (phaseCopy). No memory keeps one:
// a left add stores a copy of its own (store), so a phase token exists
// only to reach the nodes it is aimed at and, at a production node, to
// be read once by Processor.Build, which resolves its wmes out. The lent
// arena lends to whoever receives the phase's result: every delta's
// WMEs array (Build), which the absorbing conflict set reads, copying
// what it keeps, and nobody after. So everything either arena hands out
// is dead once the phase's result has been absorbed, and an owner that
// can show that much calls Processor.BeginPhase to rewind them.
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
// poison — handle 0 in a token, poisonWME in a lent array — makes a
// store clear every run released to it and never reuse it, and makes a
// Table quarantine the handles it frees, so that a token used after its
// arena was rewound or its entry removed, or after its wme was deleted,
// shows up as a wrong conflict-set delta or a sentinel in a stored
// entry rather than as a coincidence that happens to pass. Tests set
// it (PoisonRewinds); nothing else does.
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

// freeListFloor is the capacity a free list — a store's of one width,
// a Rows' of one layout — is given when its first entry goes on it, so
// that a fresh owner's lists do not grow 1, 2, 4, 8… one entry at a
// time.
const freeListFloor = 32

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
	if (*r)[id] == nil {
		(*r)[id] = make([]*ops5.WME, 0, freeListFloor)
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

// newToken carves an n-wide token from the phase arena.
func (p *Processor) newToken(n int) Token { return Token{H: p.phase.carve(n)} }

// extend returns a phase token covering t's wmes plus the wme of handle
// h.
func (p *Processor) extend(t Token, h int32) Token {
	nt := p.newToken(len(t.H) + 1)
	copyHandles(nt.H, t.H)
	nt.H[len(t.H)] = h
	return nt
}

// phaseCopy returns a phase token covering the same wmes as t: what a
// node emits of a token a memory stores, since nothing but its entry may
// hold a stored run.
func (p *Processor) phaseCopy(t Token) Token {
	nt := p.newToken(len(t.H))
	copyHandles(nt.H, t.H)
	return nt
}

// copyHandles copies src to the front of dst. It is a loop, not copy:
// a token is a few handles wide, and copy would call memmove.
func copyHandles(dst, src []int32) {
	dst = dst[:len(src)]
	for i, h := range src {
		dst[i] = h
	}
}

// storeChunkLen is the length, in handles, of the chunks a store carves
// stored runs from: one chunk holds ~300 stored tokens.
const storeChunkLen = 1024

// store is one processor's supply of the runs its memories' left
// entries keep. A left add copies the incoming phase token into a run
// taken from the store of the processor that performs it (copy), and a
// remove hands the removed entry's run straight back to the store of
// the processor that performs it (release), on the free list for its
// width, which copy draws from before it carves. Runs are carved from
// the front of a chunk; a run that does not fit takes a fresh chunk and
// leaves the rest of the old unused. Like the regions, a store belongs
// to its processor, not to a memory: a bucket that changes owners gives
// its runs back to whichever processor removes them, and a chunk stays
// live while any run carved from it does. So the stored tokens a
// long-lived processor holds are bounded by its live left entries, plus
// one chunk, however long it runs.
//
// A store is single-owner, like the Processor that embeds it.
type store struct {
	chunk  []int32     // the current chunk; chunk[:used] is carved
	used   int         // handles carved from the current chunk
	carved int         // handles carved, across chunks, since the last reset
	free   [][][]int32 // per width, released runs
}

// copy returns a run of the store holding h's handles: the last run
// released at its width, or the next carved from the chunk. The slot a
// run is taken from is not cleared: it names a run that holds handles,
// not wmes, and at worst keeps its chunk live until the slot is
// reused (reset clears every slot).
func (s *store) copy(h []int32) []int32 {
	n := len(h)
	if n < len(s.free) {
		if f := s.free[n]; len(f) > 0 {
			r := f[len(f)-1]
			s.free[n] = f[:len(f)-1]
			copyHandles(r, h)
			return r
		}
	}
	return s.carve(h)
}

// carve is copy for a width with no released run.
func (s *store) carve(h []int32) []int32 {
	n := len(h)
	if len(s.chunk)-s.used < n {
		s.chunk, s.used = make([]int32, max(n, storeChunkLen)), 0
	}
	r := s.chunk[s.used : s.used+n : s.used+n]
	s.used += n
	s.carved += n
	copyHandles(r, h)
	return r
}

// release takes back run r, which nothing reads any more: its entry has
// just been removed. Under poisonRewind it is cleared to handle 0, which
// reads as poisonWME, and never reused (grow). The common case, a free
// list with room, is kept apart from grow so that it stays short.
func (s *store) release(r []int32) {
	if n := len(r); n < len(s.free) && len(s.free[n]) < cap(s.free[n]) && !poisonRewind {
		s.free[n] = append(s.free[n], r)
		return
	}
	s.grow(r)
}

// grow is release for a width whose free list is full or not yet made.
func (s *store) grow(r []int32) {
	if poisonRewind {
		clear(r)
		return
	}
	n := len(r)
	if n >= len(s.free) {
		s.free = slices.Grow(s.free, n+1-len(s.free))[:n+1]
	}
	if s.free[n] == nil {
		s.free[n] = make([][]int32, 0, freeListFloor)
	}
	s.free[n] = append(s.free[n], r)
}

// reset empties the free lists, keeping their storage, and rewinds the
// current chunk to be carved from the front again; an earlier chunk is
// left to the collector. The caller vouches that no run of the store is
// in use — its memories are empty — and that no other processor's free
// list holds one.
func (s *store) reset() {
	for n, f := range s.free {
		clear(f[:cap(f)])
		s.free[n] = f[:0]
	}
	if poisonRewind {
		clear(s.chunk[:s.used])
	}
	s.used, s.carved = 0, 0
}
