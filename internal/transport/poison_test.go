package transport

import (
	"testing"

	"mpcrete/internal/alloc"
)

// TestPoisonedRewinds re-runs the carrier parity tests with every
// rewound delete token overwritten by rete's sentinel wme. A socket
// worker rewinds at the top of every turn (starWorker.turn): a token
// that outlived the turn that made it — unencoded in a relay, or stored
// in a bucket that later migrates — would cross the wire as wme -1 and
// break parity or the reference check at the other end. A worker's
// mirror retires the row a redefinition replaces, and under the poison
// that row reads as the sentinel (MirrorRecyclesRows). The control's
// table quarantines every handle it frees, so RecycleParity's churn
// runs with no handle defined twice.
func TestPoisonedRewinds(t *testing.T) {
	t.Cleanup(alloc.Poison())
	t.Run("ControlParity", TestControlParity)
	t.Run("LoopbackParity", TestLoopbackParity)
	t.Run("CrossCarrierMigrationAccounting", TestCrossCarrierMigrationAccounting)
	t.Run("ControlForcedMigrationParity", TestControlForcedMigrationParity)
	t.Run("ControlAdaptiveParity", TestControlAdaptiveParity)
	t.Run("RecycleParity", TestRecycleParity)
	t.Run("MirrorRecyclesRows", TestMirrorRecyclesRows)
}
