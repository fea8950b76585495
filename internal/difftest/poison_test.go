package difftest

import (
	"testing"

	"mpcrete/internal/alloc"
)

// TestPoisonedRewinds re-runs the differential matrix — the corpus, the
// generated cases, the TCP rows, the rebalance rows and the sessions
// row — with every rewound delete token overwritten by rete's sentinel
// wme, so that a token used after its arena was rewound is a
// divergence from the sequential oracle and not a coincidence.
func TestPoisonedRewinds(t *testing.T) {
	t.Cleanup(alloc.Poison())
	t.Run("Corpus", TestCorpus)
	t.Run("GeneratedCases", TestGeneratedCasesCheckClean)
	t.Run("TCPTransportParity", TestTCPTransportParity)
	t.Run("ChaosStress", TestChaosStressNoDivergence)
	t.Run("RebalanceMatrixParity", TestRebalanceMatrixParity)
	t.Run("RebalanceTCPParity", TestRebalanceTCPParity)
	t.Run("SessionsGeneratedCases", TestCheckSessionsGeneratedCases)
	t.Run("SessionsCorpus", TestCheckSessionsCorpus)
}
