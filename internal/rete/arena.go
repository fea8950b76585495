package rete

import (
	"mpcrete/internal/alloc"
	"mpcrete/internal/ops5"
)

// A Processor's match storage is its own: two arenas (alloc.Arena) and
// three pools (alloc.Pool). The phase arena lends tokens to the phase
// itself: every token an activation carries, made by a root
// (RootActivationsInto), a join (extend) or the bounded enumerator, and
// the copy a negative node emits of an entry whose count flips
// (phaseCopy). No memory keeps one: a left add stores a copy (addLeft),
// so a phase token only reaches the nodes it is aimed at and, at a
// production node, is read once by Build. The lent arena lends every
// delta's WMEs array (Build) to whoever receives the phase's result. So
// both are dead once that result has been absorbed (BeginPhase).
//
// The store's runs of handles are the tokens the left entries keep, and
// the two region pools hold what the buckets grow into. A left add
// copies its token into a run of the adding processor's store, and a
// remove puts it back into the remover's; a bucket that outgrows its
// region, or migrates away, puts the old one back into the pool of the
// processor that grows or extracts it. So the stored tokens a
// long-lived processor holds are bounded by its live left entries, plus
// one chunk, and its regions by what its buckets grew to.

// poisonWME is what a rewound token, a rewound lent array, a retired
// row and a freed handle read as under the poison (alloc.Poison), and
// what handle 0 always resolves to. No working memory holds a wme with
// a negative id.
var poisonWME = &ops5.WME{ID: -1, TimeTag: -1, Class: "rewound-token"}

func init() { alloc.Sentinel(poisonWME) }

// Rows is a working memory's supply of wme rows: the rows of retired
// wmes, blank, on a free list per layout id, which Row refills before
// it allocates. The engine's session draws every wme it holds from
// one, and a wire worker's mirror draws every definition from one, so
// neither holds more rows than its largest working memory and a few per
// layout. Its free lists are a pool's, keyed by layout id. The zero Rows
// is ready to use.
type Rows struct{ free alloc.Pool[ops5.WME] }

// Retire blanks the row of a wme nothing reads any more and puts it on
// its layout's free list. A loose row, or one laid out before its
// layout grew, is dropped. Under the poison every retired row reads as
// the sentinel instead, and none is refilled.
func (r *Rows) Retire(w *ops5.WME) {
	switch l := w.Layout(); {
	case alloc.Poisoned():
		*w = *poisonWME
	case l != nil && w.Refill(nil):
		r.free.Push(l.ID(), w)
	}
}

// Row returns a wme of layout l, the layout of src's class, with src's
// attributes (none for a nil src) and its ID and time tag still to be
// assigned: a free row refilled (Reuse), or, without one, a fresh wme,
// as c.New or c.Conform makes it (one allocation of its own for the
// nil carver).
func (r *Rows) Row(c *ops5.Carver, l *ops5.Layout, src *ops5.WME) *ops5.WME {
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
func (r *Rows) Reuse(l *ops5.Layout, src *ops5.WME) *ops5.WME {
	if l == nil {
		return nil
	}
	if w := r.free.Get(l.ID()); w != nil && w.Refill(src) {
		return w
	}
	return nil
}

// newToken carves an n-wide token from the phase arena.
func (p *Processor) newToken(n int) Token { return Token{H: p.phase.Take(n)} }

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
