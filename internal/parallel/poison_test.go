package parallel

import (
	"testing"

	"mpcrete/internal/alloc"
)

// TestPoisonedRewinds re-runs, with every rewound delete token
// overwritten by rete's sentinel wme, the tests in which a token used
// after its arena was rewound would change an answer: the hand-off
// matrix (every budget, root mode and worker count, and the chaos
// layer's split and shuffled turns), forced and adaptive migration,
// the flight recorder's end-to-end run, and the one memory pair's
// entries after every bucket changed owner, which shows that a stored
// token's run outlives its owner. Driver.inPlaceHead rewinds at the top
// of a cycle; rewinding any later — per turn, say — fails the hand-off
// matrix within a round.
func TestPoisonedRewinds(t *testing.T) {
	t.Cleanup(alloc.Poison())
	t.Run("HandOffKeepsConflictSet", TestHandOffKeepsConflictSet)
	t.Run("ForcedMigrationParity", TestForcedMigrationParity)
	t.Run("AdaptiveRebalanceParity", TestAdaptiveRebalanceParity)
	t.Run("FlightRecorderEndToEnd", TestFlightRecorderEndToEnd)
	t.Run("OneMemoryPair", TestOneMemoryPair)
}
