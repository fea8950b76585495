package engine

import "mpcrete/internal/rete"

// DeltaOf is in.delta, for the external tests: the delta that names a
// conflict-set member as the matcher does.
func DeltaOf(in *Instantiation) rete.InstChange { return in.delta() }
