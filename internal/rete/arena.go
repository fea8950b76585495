package rete

import (
	"slices"

	"mpcrete/internal/ops5"
)

// wmeRefChunkLen is the length of an arena's ordinary chunk: a token's
// run of wme references is carved from one, and a token is nothing
// else, so a chunk amortizes the allocation of ~300 tokens.
const wmeRefChunkLen = 1024

// tokenArena amortizes token allocation for a single Processor: it
// hands out runs of wme references carved from chunk-allocated blocks,
// and when a block is exhausted it takes a fresh one and drops its own
// reference to the old, whose lifetime is from then on the lifetime of
// the tokens carved from it. A match cycle therefore costs
// O(references/chunk) allocations instead of one per token.
//
// A Processor owns two. Tokens that a memory may store live as long as
// the wmes they cover; their arena is rewound only by Processor.Reset,
// with the memories. The other, the phase arena, holds what is read
// within the phase that made it and never stored: tokens made under a
// Delete activation — they exist to find the entries they remove and to
// carry the delete downstream — tokens that only production nodes
// receive, which InstBuilder.Build reads once and copies out of, and a
// Delete delta's WMEs array, which Build lends and whoever absorbs the
// phase's result reads and nobody after. So everything the phase arena
// hands out is dead once the phase's result has been absorbed, and an
// owner that can show that much calls Processor.BeginPhase to rewind it.
//
// An arena that has been rewound keeps the chunks it fills instead of
// dropping them, and the next rewind puts them back up for carving: it
// holds the storage of its largest phase and steady-state phases
// allocate nothing, however wide. An arena that is never rewound keeps
// nothing but its current chunk.
//
// The arenas are single-owner, like the Processor that embeds them: the
// sequential Matcher and each parallel worker own a pair apiece.
type tokenArena struct {
	wmes []*ops5.WME // the current chunk; wmes[:nWme] are handed out
	nWme int

	// keeps is set by the first rewind. From then on a chunk that fills
	// goes on the full list, and rewind moves those to the spare list,
	// which grow draws on before it allocates.
	keeps               bool
	fullWMEs, spareWMEs [][]*ops5.WME
}

// poisonRewind makes rewind overwrite the wme references of every
// token it recycles with poisonWME instead of clearing them, so that a
// token used after its arena was rewound shows up as a wrong
// conflict-set delta or a sentinel in a stored entry rather than as a
// coincidence that happens to pass. A lent delta array is made of the
// same references and reads as poisonWME throughout. Tests set it
// (PoisonRewinds); nothing else does.
var poisonRewind bool

// poisonWME is what a rewound token reads as under poisonRewind. No
// working memory holds a wme with a negative id.
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

// scrub clears (or poisons) what was handed out of one chunk, so that
// recycled storage pins no wme.
func scrub(wmes []*ops5.WME) {
	if poisonRewind {
		for i := range wmes {
			wmes[i] = poisonWME
		}
		return
	}
	clear(wmes)
}

// rewind takes back everything carved since the last rewind: it is
// cleared, so that recycled tokens pin no wme, and carved again. A
// phase that stayed inside its chunk starts over at its head; one that
// filled chunks gets them back as spares. The caller vouches that
// nothing this arena handed out is still in use.
func (ar *tokenArena) rewind() {
	ar.keeps = true
	scrub(ar.wmes[:ar.nWme])
	ar.nWme = 0
	if len(ar.fullWMEs) == 0 && len(ar.wmes) <= wmeRefChunkLen {
		return
	}
	// The phase filled chunks, or ended on the oversized one a lent delta
	// array asked for: they all go back, the current one included, so
	// that the next phase's tokens fill ordinary chunks and its oversized
	// request finds that chunk whole.
	for i, c := range ar.fullWMEs {
		scrub(c)
		ar.spareWMEs = append(ar.spareWMEs, c)
		ar.fullWMEs[i] = nil
	}
	ar.fullWMEs = ar.fullWMEs[:0]
	ar.spareWMEs = append(ar.spareWMEs, ar.wmes)
	ar.wmes = nil
}

// reset is rewind for an arena whose owner starts over
// (Processor.Reset): at most one ordinary chunk survives, so a pooled
// session inherits neither a wide phase's storage nor the habit of
// keeping it.
func (ar *tokenArena) reset() {
	ar.rewind()
	*ar = tokenArena{wmes: ar.wmes}
}

// growWMEs makes current a backing chunk that holds n references. A
// request of up to wmeRefChunkLen takes an ordinary chunk, spare or
// fresh, and never an oversized one; a request above that (a wide
// phase's lent delta arrays) takes the smallest oversized spare that
// holds it, or a fresh chunk of exactly n, which replaces the oversized
// spares that proved too small. The unused tail of the chunk that was
// current is wasted.
func (ar *tokenArena) growWMEs(n int) {
	if ar.keeps && ar.wmes != nil {
		ar.fullWMEs = append(ar.fullWMEs, ar.wmes)
	}
	ordinary := n <= wmeRefChunkLen
	best := -1
	for i, c := range ar.spareWMEs {
		if len(c) >= n && (len(c) == wmeRefChunkLen) == ordinary && (best < 0 || len(c) < len(ar.spareWMEs[best])) {
			best = i
		}
	}
	switch {
	case best >= 0:
		last := len(ar.spareWMEs) - 1
		ar.wmes = ar.spareWMEs[best]
		ar.spareWMEs[best], ar.spareWMEs[last] = ar.spareWMEs[last], nil
		ar.spareWMEs = ar.spareWMEs[:last]
	case ordinary:
		ar.wmes = make([]*ops5.WME, wmeRefChunkLen)
	default:
		ar.spareWMEs = slices.DeleteFunc(ar.spareWMEs, func(c []*ops5.WME) bool { return len(c) > wmeRefChunkLen })
		ar.wmes = make([]*ops5.WME, n)
	}
	ar.nWme = 0
}

// refs carves n wme references. The slice is full-capacity-capped so an
// append can never bleed into a neighbour's.
func (ar *tokenArena) refs(n int) []*ops5.WME {
	if n > len(ar.wmes)-ar.nWme {
		ar.growWMEs(n)
	}
	r := ar.wmes[ar.nWme : ar.nWme+n : ar.nWme+n]
	ar.nWme += n
	return r
}

// newToken carves an n-wide token for nodes to, activated under tag,
// from the arena its lifetime calls for: the phase arena when no node
// of to stores it — a delete token, or one that only production nodes
// receive — and the other otherwise. It is decided per token, not
// compiled in, because adding a production to a live network appends
// successors to existing nodes.
func (p *Processor) newToken(n int, tag Tag, to []*Node) Token {
	if tag == Delete || onlyProductions(to) {
		return Token{WMEs: p.delArena.refs(n)}
	}
	return Token{WMEs: p.arena.refs(n)}
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

// extend returns a token covering t's wmes plus w, for nodes to.
func (p *Processor) extend(t Token, w *ops5.WME, tag Tag, to []*Node) Token {
	nt := p.newToken(len(t.WMEs)+1, tag, to)
	copy(nt.WMEs, t.WMEs)
	nt.WMEs[len(t.WMEs)] = w
	return nt
}
