package difftest

import (
	"fmt"

	"mpcrete/internal/core"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/trace"
)

// seqTraced is the shared network on a sequential matcher whose
// Listener records the run as a trace — the role the instrumented
// uniprocessor OPS5 played for the paper's simulator. Its conflict sets
// are compared like any row's, and when the case ends the row replays
// the trace through the simulator (conserved). Engine-level cases only.
var seqTraced = config{name: "seq-traced", engineOnly: true, build: func(prods []*ops5.Production, _ CheckOptions) (built, error) {
	net, err := rete.CompileVariant(prods, "shared")
	if err != nil {
		return built{}, err
	}
	rec := trace.NewRecorder("difftest", checkNBuckets)
	m := rete.NewMatcher(net, rete.MatcherOptions{NBuckets: checkNBuckets, Listener: rec})
	return built{net: net, matcher: m, finish: func() error { return conserved(rec.Trace()) }}, nil
}}

// conserved replays tr through the discrete-event MPC simulator at 1
// and 4 match processors and checks the invariants that tie the two
// execution models together: every recorded activation is simulated
// exactly once per cycle whatever the partitioning, and the simulator
// delivers exactly the recorded number of instantiations. A violation means the simulator
// drops or duplicates work for this workload shape, which would
// silently corrupt every Fig 5-x result built on it.
func conserved(tr *trace.Trace) error {
	wantInsts := tr.Stats().Instantiations
	for _, p := range []int{1, 4} {
		res, err := core.Simulate(tr, core.NewConfig(p))
		if err != nil {
			return fmt.Errorf("simulate p=%d: %w", p, err)
		}
		if res.Insts != wantInsts {
			return fmt.Errorf("simulate p=%d delivered %d instantiations, trace has %d", p, res.Insts, wantInsts)
		}
		for ci, cyc := range tr.Cycles {
			got := 0
			for _, n := range res.ActsPerSlot[ci] {
				got += n
			}
			if want := cyc.Activations(); got != want {
				return fmt.Errorf("simulate p=%d cycle %d simulated %d activations, trace has %d", p, ci, got, want)
			}
		}
	}
	return nil
}
