package rete

import (
	"math/rand"
	"testing"

	"mpcrete/internal/ops5"
)

// poison switches poisonRewind on for the rest of the test.
func poison(t *testing.T) {
	t.Helper()
	t.Cleanup(PoisonRewinds())
}

// inChunk reports whether tok was carved from the arena's current
// chunk.
func (ar *tokenArena) inChunk(tok *Token) bool {
	for i := range ar.tokens {
		if &ar.tokens[i] == tok {
			return true
		}
	}
	return false
}

// TestPoisonedRewinds re-runs, with every rewound token overwritten by
// the sentinel wme, the tests that would see a delete token used after
// the phase that made it: the randomized differentials against the
// naive matcher (every variant, hashed and linear memories), and the
// held-result test, whose deltas must have copied their wmes out of
// their tokens.
func TestPoisonedRewinds(t *testing.T) {
	poison(t)
	t.Run("RandomizedDifferential", TestMatcherRandomizedDifferential)
	t.Run("BoundedDifferential", TestBoundedRandomizedDifferential)
	t.Run("ResultBelongsToCaller", TestApplyResultBelongsToCaller)
}

// TestDeleteTokensAreNeverStored is the assertion the second arena
// rests on: whatever the program and the sequence of changes, no left
// memory entry ever holds a token carved from the delete arena. It
// checks the pointer, and — with the poison on — that no stored token
// reads as the sentinel, which is what a delete token stored in an
// earlier phase would have become.
func TestDeleteTokensAreNeverStored(t *testing.T) {
	poison(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		h := newHarness(t, 1<<uint(rng.Intn(5)), randomProductions(rng, 1+rng.Intn(4))...)
		p := h.matcher.proc
		var live []*ops5.WME
		for step := 0; step < 40; step++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				h.remove(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				live = append(live, h.add([]string{"a", "b", "c"}[rng.Intn(3)], "x", rng.Intn(3), "y", rng.Intn(3)))
			}
			for b, bucket := range p.left.buckets {
				for _, e := range bucket {
					if p.delArena.inChunk(e.token) {
						t.Fatalf("trial %d step %d: left bucket %d stores token %v of node %d from the delete arena", trial, step, b, e.token, e.node.ID)
					}
					for _, w := range e.token.WMEs {
						if w == poisonWME {
							t.Fatalf("trial %d step %d: left bucket %d stores a rewound token at node %d", trial, step, b, e.node.ID)
						}
					}
				}
			}
		}
		h.checkNaive()
	}
}

// TestDeleteArenaIsRewoundOnlyWhenAsked: under a Matcher, which calls
// BeginPhase, any number of small delete phases carve from one chunk;
// under an owner that never calls it, no delete token is ever handed
// out twice — chunk-amortised allocation, nothing reused.
func TestDeleteArenaIsRewoundOnlyWhenAsked(t *testing.T) {
	m, adds, dels := pairingBurst(t, 3, 3)
	m.Apply(adds)
	m.Apply(dels)
	chunk := &m.proc.delArena.tokens[0]
	perPhase := m.proc.delArena.nTok
	for i := 0; i < 100; i++ {
		m.Apply(adds)
		m.Apply(dels)
	}
	if perPhase == 0 || perPhase*100 < tokenChunkLen {
		t.Fatalf("%d delete tokens a phase: 100 phases would not outgrow a chunk anyway", perPhase)
	}
	if &m.proc.delArena.tokens[0] != chunk || m.proc.delArena.nTok != perPhase {
		t.Errorf("after 100 delete phases the delete arena is %d tokens into another chunk, want %d into the first", m.proc.delArena.nTok, perPhase)
	}

	p := NewProcessor(m.Network(), 16)
	seen := map[*Token]bool{}
	for i := 0; i < 100; i++ {
		for _, ch := range append(append([]Change{}, adds...), dels...) {
			for _, a := range drainT(p, p.RootActivationsInto(ch, nil)) {
				if a.Tag != Delete {
					continue
				}
				if seen[a.Token] {
					t.Fatalf("round %d: a delete token was handed out twice with BeginPhase never called", i)
				}
				seen[a.Token] = true
			}
		}
	}
	if len(seen) < 2*tokenChunkLen {
		t.Fatalf("only %d delete tokens reached the production node: not past a chunk boundary", len(seen))
	}
}
