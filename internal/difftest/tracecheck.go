package difftest

import (
	"fmt"

	"mpcrete/internal/core"
	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/trace"
)

// CheckTrace is the trace-level differential: it records the
// sequential engine's match activity for a case as a trace, replays
// that trace through the discrete-event MPC simulator at several
// processor counts, and asserts the conservation invariants that tie
// the two execution models together — every recorded activation is
// simulated exactly once per cycle regardless of partitioning, and the
// simulator delivers exactly the recorded number of instantiations.
// A violation means the simulator is dropping or duplicating work for
// this workload shape, which would silently corrupt every Fig 5-x
// result built on it.
func CheckTrace(c Case, maxCycles int, procs []int) error {
	if c.IsScript() {
		return fmt.Errorf("difftest: CheckTrace needs an engine-level case, got script case %s", c.Name)
	}
	if maxCycles <= 0 {
		maxCycles = 50
	}
	if len(procs) == 0 {
		procs = []int{1, 4}
	}
	prog, err := ops5.ParseProgram(c.ProgSrc)
	if err != nil {
		return fmt.Errorf("difftest: case %s: %w", c.Name, err)
	}
	rec := trace.NewRecorder(c.Name, checkNBuckets)
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{NBuckets: checkNBuckets, Listener: rec})
	if err != nil {
		return fmt.Errorf("difftest: case %s: %w", c.Name, err)
	}
	if wmes, err := ops5.ParseWMEs(c.WMESrc); err == nil {
		e.InsertWMEs(wmes...)
	}
	if _, err := e.Run(maxCycles); err != nil && err != engine.ErrCycleLimit {
		return fmt.Errorf("difftest: case %s: run: %w", c.Name, err)
	}
	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("difftest: case %s: recorded trace invalid: %w", c.Name, err)
	}
	wantInsts := tr.Stats().Instantiations

	for _, p := range procs {
		res, err := core.Simulate(tr, core.NewConfig(p))
		if err != nil {
			return fmt.Errorf("difftest: case %s: simulate p=%d: %w", c.Name, p, err)
		}
		if res.Insts != wantInsts {
			return fmt.Errorf("difftest: case %s: p=%d delivered %d instantiations, trace has %d",
				c.Name, p, res.Insts, wantInsts)
		}
		for ci, cyc := range tr.Cycles {
			want := cyc.Activations()
			got := 0
			for _, n := range res.ActsPerSlot[ci] {
				got += n
			}
			if got != want {
				return fmt.Errorf("difftest: case %s: p=%d cycle %d simulated %d activations, trace has %d",
					c.Name, p, ci, got, want)
			}
		}
	}
	return nil
}
