package core

import (
	"errors"
	"testing"

	"mpcrete/internal/sched"
	"mpcrete/internal/simnet"
	"mpcrete/internal/trace"
)

func configTestTrace() *trace.Trace {
	return &trace.Trace{
		Name:     "cfg-test",
		NBuckets: 4,
		Cycles: []*trace.Cycle{{
			Changes: 1,
			Roots: []*trace.Activation{
				{Node: 0, Side: trace.RightSide, Bucket: 0},
				{Node: 1, Side: trace.LeftSide, Bucket: 1},
			},
		}},
	}
}

func TestNewConfigDefaults(t *testing.T) {
	cfg := NewConfig(8)
	if cfg.MatchProcs != 8 {
		t.Errorf("MatchProcs = %d, want 8", cfg.MatchProcs)
	}
	if cfg.Costs != DefaultCosts() {
		t.Errorf("Costs = %+v, want DefaultCosts", cfg.Costs)
	}
	if cfg.Latency != NectarLatency() {
		t.Errorf("Latency = %v, want NectarLatency", cfg.Latency)
	}
	ov := OverheadRuns()[2]
	cfg = NewConfig(4,
		WithOverhead(ov),
		WithLatency(simnet.US(2)),
		WithPairs(),
		WithSoftwareBroadcast(),
	)
	if cfg.Overhead != ov || cfg.Latency != simnet.US(2) || !cfg.Pairs || !cfg.SoftwareBroadcast {
		t.Errorf("options not applied: %+v", cfg)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	tr := configTestTrace()

	var pce *ProcCountError
	if err := NewConfig(0).Validate(tr); !errors.As(err, &pce) || pce.Procs != 0 {
		t.Errorf("procs=0: got %v, want ProcCountError", err)
	}
	if err := NewConfig(-3).Validate(tr); !errors.As(err, &pce) || pce.Procs != -3 {
		t.Errorf("procs=-3: got %v, want ProcCountError", err)
	}

	var pse *PartitionSizeError
	err := NewConfig(2, WithPartition(make(sched.Partition, 3))).Validate(tr)
	if !errors.As(err, &pse) || pse.Got != 3 || pse.Want != 4 || pse.Cycle != -1 {
		t.Errorf("short partition: got %v, want PartitionSizeError{-1,3,4}", err)
	}
	err = NewConfig(2, func(c *Config) { c.PerCycle = []sched.Partition{make(sched.Partition, 2)} }).Validate(tr)
	if !errors.As(err, &pse) || pse.Cycle != 0 {
		t.Errorf("short per-cycle partition: got %v, want PartitionSizeError{cycle 0}", err)
	}

	var pcc *PerCycleCountError
	err = NewConfig(2, func(c *Config) { c.PerCycle = make([]sched.Partition, 3) }).Validate(tr)
	if !errors.As(err, &pcc) || pcc.Got != 3 || pcc.Want != 1 {
		t.Errorf("per-cycle count: got %v, want PerCycleCountError{3,1}", err)
	}

	var te *TopologyError
	if err := NewConfig(2, func(c *Config) { c.Contention = true }).Validate(tr); !errors.As(err, &te) {
		t.Errorf("contention w/o topology: got %v, want TopologyError", err)
	}
	ok := NewConfig(2, func(c *Config) { c.Topology, c.Contention = simnet.Crossbar{}, true })
	if err := ok.Validate(tr); err != nil {
		t.Errorf("contention with crossbar: %v", err)
	}

	var ioe *IncompatibleOptionsError
	if err := NewConfig(2, WithCentralRoots(), WithPairs()).Validate(tr); !errors.As(err, &ioe) {
		t.Errorf("central+pairs: got %v, want IncompatibleOptionsError", err)
	}
	if err := NewConfig(2, func(c *Config) { c.Replicated = true }, WithPairs()).Validate(tr); !errors.As(err, &ioe) {
		t.Errorf("replicated+pairs: got %v, want IncompatibleOptionsError", err)
	}

	if err := NewConfig(2).Validate(tr); err != nil {
		t.Errorf("valid config: %v", err)
	}
}

// TestSimulateValidatesUpFront pins that a bad point fails before any
// simulation work, with the typed error surfaced through Simulate and
// Speedup alike.
func TestSimulateValidatesUpFront(t *testing.T) {
	tr := configTestTrace()
	bad := NewConfig(2, WithPartition(make(sched.Partition, 99)))
	if _, err := Simulate(tr, bad); err == nil {
		t.Fatal("Simulate accepted a mis-sized partition")
	}
	if _, _, _, err := Speedup(tr, bad); err == nil {
		t.Fatal("Speedup accepted a mis-sized partition")
	}
	var pse *PartitionSizeError
	_, err := Simulate(tr, bad)
	if !errors.As(err, &pse) {
		t.Errorf("Simulate error = %v, want PartitionSizeError", err)
	}
}

func TestFingerprint(t *testing.T) {
	tr := configTestTrace()
	a := NewConfig(2)
	b := NewConfig(2)
	if a.Fingerprint(tr) != b.Fingerprint(tr) {
		t.Error("identical configs fingerprint differently")
	}

	// The overhead display name is not semantic: run1 is 0/0 µs, the
	// same machine as the zero value and the baseline's "base" label.
	named := NewConfig(2, WithOverhead(OverheadRuns()[0]))
	if a.Fingerprint(tr) != named.Fingerprint(tr) {
		t.Error("overhead name leaked into the fingerprint")
	}

	// A nil partition is canonicalized to the round-robin default, so
	// the explicit form dedupes with it.
	rr := NewConfig(2, WithPartition(sched.RoundRobin(tr.NBuckets, 2)))
	if a.Fingerprint(tr) != rr.Fingerprint(tr) {
		t.Error("explicit round-robin != nil partition")
	}

	for name, other := range map[string]Config{
		"procs":      NewConfig(4),
		"overhead":   NewConfig(2, WithOverhead(OverheadRuns()[1])),
		"latency":    NewConfig(2, WithLatency(simnet.US(9))),
		"topology":   NewConfig(2, func(c *Config) { c.Topology, c.PerHop = simnet.Mesh2D{W: 2, H: 2}, simnet.US(1) }),
		"partition":  NewConfig(2, WithPartition(sched.Partition{1, 0, 1, 0})),
		"pairs":      NewConfig(2, WithPairs()),
		"central":    NewConfig(2, WithCentralRoots()),
		"replicated": NewConfig(2, func(c *Config) { c.Replicated = true }),
		"swbcast":    NewConfig(2, WithSoftwareBroadcast()),
	} {
		if a.Fingerprint(tr) == other.Fingerprint(tr) {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}

	// Observability attachments must not perturb the key.
	withObs := NewConfig(2)
	withObs.Metrics = nil // zero-value registries aside, the fields are excluded by construction
	if a.Fingerprint(tr) != withObs.Fingerprint(tr) {
		t.Error("observability fields leaked into the fingerprint")
	}
}
