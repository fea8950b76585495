package sched

import (
	"reflect"
	"testing"
)

func TestRebalanceEnabled(t *testing.T) {
	if (Rebalance{}).Enabled() {
		t.Error("zero Rebalance reports enabled")
	}
	if !(Rebalance{Threshold: 1.2}).Enabled() {
		t.Error("Threshold 1.2 reports disabled")
	}
	if !DefaultRebalance().Enabled() {
		t.Error("DefaultRebalance reports disabled")
	}
}

// TestBalancerMigratesHotBucket drives a skewed load (one bucket
// dominating a round-robin partition) and checks the balancer moves
// hot buckets off the overloaded worker, improving imbalance.
func TestBalancerMigratesHotBucket(t *testing.T) {
	const nbuckets, procs = 8, 2
	init := RoundRobin(nbuckets, procs)
	bl := NewBalancer(Rebalance{Threshold: 1.2, MinInterval: 1}, init, procs)
	// Buckets 0 and 2 are hot; both live on worker 0 under round-robin.
	bl.Observe(0, 100)
	bl.Observe(2, 90)
	bl.Observe(1, 5)
	before := bl.Imbalance()
	part, ok := bl.EndCycle()
	if !ok {
		t.Fatalf("no migration for imbalance %.2f", before)
	}
	if part[0] == part[2] {
		t.Errorf("hot buckets 0 and 2 still share worker %d: %v", part[0], part)
	}
	if got := bl.Imbalance(); got >= before {
		t.Errorf("imbalance did not improve: %.3f -> %.3f", before, got)
	}
	// Cold buckets must not churn.
	for b := 3; b < nbuckets; b++ {
		if part[b] != init[b] {
			t.Errorf("cold bucket %d moved %d -> %d", b, init[b], part[b])
		}
	}
}

func TestBalancerRespectsMinInterval(t *testing.T) {
	init := RoundRobin(8, 2)
	bl := NewBalancer(Rebalance{Threshold: 1.1, MinInterval: 3}, init, 2)
	migrations := 0
	for cycle := 0; cycle < 9; cycle++ {
		// Persistent skew: worker 0's buckets get all the load, and the
		// hot bucket alternates so a fresh replan is always profitable.
		bl.Observe((cycle%2)*2, 100)
		bl.Observe((cycle%2)*2+4, 60)
		if _, ok := bl.EndCycle(); ok {
			migrations++
		}
	}
	if migrations > 3 {
		t.Errorf("%d migrations in 9 cycles with MinInterval=3", migrations)
	}
	if migrations == 0 {
		t.Error("no migrations at all under persistent skew")
	}
}

func TestBalancerIdleNeverMigrates(t *testing.T) {
	bl := NewBalancer(Rebalance{Threshold: 1.1, MinInterval: 1}, RoundRobin(16, 4), 4)
	for cycle := 0; cycle < 10; cycle++ {
		if part, ok := bl.EndCycle(); ok {
			t.Fatalf("idle balancer migrated at cycle %d: %v", cycle, part)
		}
	}
}

func TestBalancerHysteresisBlocksMarginalPlans(t *testing.T) {
	// Two buckets, two workers, both buckets on worker 0: moving one
	// improves imbalance from 2.0 to ~1.05 — blocked only by an
	// enormous hysteresis.
	init := Partition{0, 0}
	bl := NewBalancer(Rebalance{Threshold: 1.1, Hysteresis: 5, MinInterval: 1}, init, 2)
	bl.Observe(0, 100)
	bl.Observe(1, 95)
	if part, ok := bl.EndCycle(); ok {
		t.Fatalf("hysteresis 5 allowed migration: %v", part)
	}
	bl2 := NewBalancer(Rebalance{Threshold: 1.1, Hysteresis: 0.05, MinInterval: 1}, init, 2)
	bl2.Observe(0, 100)
	bl2.Observe(1, 95)
	if _, ok := bl2.EndCycle(); !ok {
		t.Fatal("hysteresis 0.05 blocked a halving of imbalance")
	}
}

// TestBalancerDeterministic pins that two balancers fed the identical
// observation sequence plan identical migrations — the property the
// cross-engine parity oracle relies on.
func TestBalancerDeterministic(t *testing.T) {
	mk := func() []Partition {
		bl := NewBalancer(Rebalance{Threshold: 1.2, MinInterval: 2}, RoundRobin(32, 4), 4)
		var parts []Partition
		for cycle := 0; cycle < 40; cycle++ {
			for b := 0; b < 32; b++ {
				bl.Observe(b, int64((b*7+cycle*13)%11))
			}
			bl.Observe(cycle%32, 200)
			if p, ok := bl.EndCycle(); ok {
				parts = append(parts, p)
			}
		}
		return parts
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("balancer plans diverged:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Error("rotating hot spot produced no migrations")
	}
}

func TestPartitionMoves(t *testing.T) {
	old := Partition{0, 1, 0, 1}
	new := Partition{0, 0, 1, 1}
	if got := PartitionMoves(old, new); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("PartitionMoves = %v, want [1 2]", got)
	}
	if got := PartitionMoves(old, old); got != nil {
		t.Errorf("PartitionMoves(same) = %v, want nil", got)
	}
}

func TestAdaptiveStrategyRegistration(t *testing.T) {
	s, err := StrategyByName("adaptive", 0)
	if err != nil {
		t.Fatalf("StrategyByName(adaptive): %v", err)
	}
	rs, ok := s.(RebalanceStrategy)
	if !ok {
		t.Fatal("adaptive does not implement RebalanceStrategy")
	}
	if !rs.RebalanceConfig().Enabled() {
		t.Error("adaptive zero value has disabled rebalance config")
	}
	if got := (AdaptiveStrategy{Rebalance: Rebalance{Threshold: 9}}).RebalanceConfig().Threshold; got != 9 {
		t.Errorf("explicit knobs not honoured: threshold %v", got)
	}
	if p := s.Assign(nil, 8, 2); !reflect.DeepEqual(p, RoundRobin(8, 2)) {
		t.Errorf("adaptive static Assign = %v, want round-robin", p)
	}
	found := false
	for _, name := range StrategyNames() {
		if name == "adaptive" {
			found = true
		}
	}
	if !found {
		t.Errorf("adaptive missing from StrategyNames: %v", StrategyNames())
	}
}
