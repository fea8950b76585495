package rete

import "mpcrete/internal/ops5"

// Arena chunk sizes. Tokens are small (one slice header), so a chunk
// amortizes the per-token allocation to ~1/256; wme-pointer backing is
// carved from larger blocks because token widths vary.
const (
	tokenChunkLen  = 256
	wmeRefChunkLen = 1024
)

// tokenArena amortizes Token and wme-slice allocation for a single
// Processor: it hands out pointers into chunk-allocated blocks, and
// when a block is exhausted it takes a fresh one and drops its own
// reference to the old, whose lifetime is from then on the lifetime of
// the tokens carved from it. A match cycle therefore costs
// O(tokens/chunk) allocations instead of two per token (the Token and
// its WMEs backing array).
//
// A Processor owns two. Tokens made under an Add activation may be
// stored in a left memory and live as long as the wmes they cover;
// their arena is rewound only by Processor.Reset, with the memories.
// Tokens made under a Delete activation are never stored — they exist
// to find the entries they remove and to carry the delete downstream —
// so every one of them is dead once the phase's conflict-set deltas
// have been built, and an owner that can show that much calls
// Processor.BeginPhase to rewind their arena: the same chunk serves
// every phase and steady-state deletes allocate nothing.
//
// The arenas are single-owner, like the Processor that embeds them: the
// sequential Matcher and each parallel worker own a pair apiece.
type tokenArena struct {
	tokens []Token     // the current token chunk; tokens[:nTok] are handed out
	wmes   []*ops5.WME // the current backing chunk; wmes[:nWme] are handed out
	nTok   int
	nWme   int
}

// poisonRewind makes rewind overwrite the wme references of every
// token it recycles with poisonWME instead of clearing them, so that a
// token used after its arena was rewound shows up as a wrong
// conflict-set delta or a sentinel in a stored entry rather than as a
// coincidence that happens to pass. Tests set it (PoisonRewinds);
// nothing else does.
var poisonRewind bool

// poisonWME is what a rewound token reads as under poisonRewind. No
// working memory holds a wme with a negative id.
var poisonWME = &ops5.WME{ID: -1, TimeTag: -1, Class: "rewound-token"}

// PoisonRewinds is the test hook behind poisonRewind for the packages
// whose tests drive processors they cannot reach into (parallel,
// transport, difftest): it turns the poison on and returns the function
// that turns it off again. Call both while no matcher is running.
func PoisonRewinds() (restore func()) {
	poisonRewind = true
	return func() { poisonRewind = false }
}

// rewind takes back everything carved from the current chunks: the used
// part is cleared, so that recycled tokens pin no wme, and carving
// starts again from the chunks' heads. Chunks exhausted earlier were
// let go when they filled and are not touched. The caller vouches that
// no token of this arena is still in use.
func (ar *tokenArena) rewind() {
	if poisonRewind {
		for i := range ar.wmes[:ar.nWme] {
			ar.wmes[i] = poisonWME
		}
	} else {
		clear(ar.tokens[:ar.nTok])
		clear(ar.wmes[:ar.nWme])
	}
	ar.nTok, ar.nWme = 0, 0
}

// newToken returns a fresh token with an n-wide WMEs slice, both carved
// from the arena. The slice is full-capacity-capped so an append can
// never bleed into a neighbouring token's backing.
func (ar *tokenArena) newToken(n int) *Token {
	if ar.nTok == len(ar.tokens) {
		ar.tokens, ar.nTok = make([]Token, tokenChunkLen), 0
	}
	t := &ar.tokens[ar.nTok]
	ar.nTok++
	if n > len(ar.wmes)-ar.nWme {
		ar.wmes, ar.nWme = make([]*ops5.WME, max(wmeRefChunkLen, n)), 0
	}
	t.WMEs = ar.wmes[ar.nWme : ar.nWme+n : ar.nWme+n]
	ar.nWme += n
	return t
}

// newToken carves an n-wide token for an activation tagged tag from the
// arena that tag's tokens live in.
func (p *Processor) newToken(n int, tag Tag) *Token {
	if tag == Delete {
		return p.delArena.newToken(n)
	}
	return p.arena.newToken(n)
}

// extend returns a token covering t's wmes plus w, carved from the
// processor's arena for tag.
func (p *Processor) extend(t *Token, w *ops5.WME, tag Tag) *Token {
	nt := p.newToken(len(t.WMEs)+1, tag)
	copy(nt.WMEs, t.WMEs)
	nt.WMEs[len(t.WMEs)] = w
	return nt
}
