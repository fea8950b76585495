package core

import (
	"testing"

	"mpcrete/internal/sched"
	"mpcrete/internal/trace"
)

// skewedTrace builds a synthetic trace where two hot buckets carry
// almost all the activation load and — crucially — land on the same
// worker under round-robin for both 4 and 8 processors (buckets 1 and
// 9 of 16). This is the shape the paper's §5.2.2 analysis shows
// defeats every uniform static policy.
func skewedTrace(t testing.TB, cycles int) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{Name: "skewed", NBuckets: 16}
	for c := 0; c < cycles; c++ {
		cy := &trace.Cycle{Changes: 1}
		for _, hot := range []int{1, 9} {
			for i := 0; i < 25; i++ {
				cy.Roots = append(cy.Roots, &trace.Activation{
					Node: 10 + i%7, Side: trace.LeftSide, Tag: trace.AddTag, Bucket: hot,
				})
			}
		}
		for b := 0; b < tr.NBuckets; b++ {
			cy.Roots = append(cy.Roots, &trace.Activation{
				Node: 50 + b, Side: trace.RightSide, Tag: trace.AddTag, Bucket: b,
			})
		}
		tr.Cycles = append(tr.Cycles, cy)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("skewed trace invalid: %v", err)
	}
	return tr
}

func TestSimulateRebalanceMigrates(t *testing.T) {
	tr := skewedTrace(t, 40)
	cfg := NewConfig(4, func(c *Config) { c.Rebalance = sched.Rebalance{Threshold: 1.2, MinInterval: 2} })
	res, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 || res.BucketsMoved == 0 {
		t.Fatalf("skewed trace produced no migrations: %+v", res)
	}
	static, err := Simulate(tr, NewConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// Every migrated bucket adds two messages to the run.
	wantMsgs := static.Net.Messages + 2*res.BucketsMoved
	if res.Net.Messages != wantMsgs {
		t.Errorf("messages = %d, want static %d + 2*%d moved = %d",
			res.Net.Messages, static.Net.Messages, res.BucketsMoved, wantMsgs)
	}
}

// TestSimulateRebalanceImprovesSkewedMakespan is the simulator-level
// version of the ablation claim: on a heavily skewed trace the online
// rebalancer beats the static round-robin assignment it starts from.
func TestSimulateRebalanceImprovesSkewedMakespan(t *testing.T) {
	tr := skewedTrace(t, 60)
	static, err := Simulate(tr, NewConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Simulate(tr, NewConfig(8, func(c *Config) { c.Rebalance = sched.DefaultRebalance() }))
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Makespan >= static.Makespan {
		t.Errorf("adaptive makespan %d not better than static %d (migrations=%d)",
			adaptive.Makespan, static.Makespan, adaptive.Migrations)
	}
}

func TestSimulateRebalanceDeterministic(t *testing.T) {
	tr := skewedTrace(t, 30)
	cfg := NewConfig(4, func(c *Config) { c.Rebalance = sched.DefaultRebalance() })
	a, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Migrations != b.Migrations || a.BucketsMoved != b.BucketsMoved {
		t.Errorf("nondeterministic rebalance run: %+v vs %+v", a, b)
	}
}

func TestValidateRebalanceIncompatibilities(t *testing.T) {
	tr := skewedTrace(t, 5)
	reb := sched.Rebalance{Threshold: 1.2}
	pc := make([]sched.Partition, 5)
	for i := range pc {
		pc[i] = sched.RoundRobin(16, 2)
	}
	cases := []Config{
		NewConfig(2, func(c *Config) { c.Rebalance, c.PerCycle = reb, pc }),
		NewConfig(2, func(c *Config) { c.Rebalance = reb }, WithPairs()),
		NewConfig(2, func(c *Config) { c.Rebalance, c.Replicated = reb, true }),
	}
	for i, cfg := range cases {
		if _, ok := cfg.Validate(tr).(*IncompatibleOptionsError); !ok {
			t.Errorf("case %d: want IncompatibleOptionsError, got %v", i, cfg.Validate(tr))
		}
	}
	if err := NewConfig(2, func(c *Config) { c.Rebalance = reb }).Validate(tr); err != nil {
		t.Errorf("rebalance alone rejected: %v", err)
	}
}

// TestFingerprintIncludesRebalance is the cache-collision regression:
// before the fix, an adaptive config hashed identically to the static
// config it starts from, so the sweep engine's content-addressed cache
// served the static result for the adaptive point.
func TestFingerprintIncludesRebalance(t *testing.T) {
	tr := skewedTrace(t, 5)
	static := NewConfig(4)
	adaptive := NewConfig(4, func(c *Config) { c.Rebalance = sched.Rebalance{Threshold: 1.3, MinInterval: 2} })
	if static.Fingerprint(tr) == adaptive.Fingerprint(tr) {
		t.Error("adaptive config fingerprint collides with its static starting point")
	}
	other := NewConfig(4, func(c *Config) { c.Rebalance = sched.Rebalance{Threshold: 1.6, MinInterval: 2} })
	if adaptive.Fingerprint(tr) == other.Fingerprint(tr) {
		t.Error("different rebalance thresholds share a fingerprint")
	}
	same := NewConfig(4, func(c *Config) { c.Rebalance = sched.Rebalance{Threshold: 1.3, MinInterval: 2} })
	if adaptive.Fingerprint(tr) != same.Fingerprint(tr) {
		t.Error("identical rebalance configs fingerprint differently")
	}
	// Baseline strips rebalancing, so its fingerprint matches the
	// plain single-processor base case.
	if Baseline(adaptive).Fingerprint(tr) != Baseline(static).Fingerprint(tr) {
		t.Error("Baseline did not strip rebalance knobs")
	}
}
