package sched

import (
	"reflect"
	"testing"
)

func strategyLoad() []map[int]int {
	return []map[int]int{
		{0: 10, 3: 2, 5: 7},
		{1: 4, 3: 9},
	}
}

// TestStrategiesMatchFreeFunctions pins each Strategy to the free
// function it wraps, so migrating a call site cannot change results.
func TestStrategiesMatchFreeFunctions(t *testing.T) {
	load := strategyLoad()
	const nbuckets, procs = 8, 3

	if got, want := (RoundRobinStrategy{}).Assign(load, nbuckets, procs), RoundRobin(nbuckets, procs); !reflect.DeepEqual(got, want) {
		t.Errorf("round-robin: %v != %v", got, want)
	}
	if got, want := (RandomStrategy{Seed: 42}).Assign(load, nbuckets, procs), Random(nbuckets, procs, 42); !reflect.DeepEqual(got, want) {
		t.Errorf("random: %v != %v", got, want)
	}
	if got, want := (GreedyAggregateStrategy{}).Assign(load, nbuckets, procs), GreedyAggregate(load, nbuckets, procs); !reflect.DeepEqual(got, want) {
		t.Errorf("greedy-aggregate: %v != %v", got, want)
	}
	if got, want := (GreedyPerCycleStrategy{}).AssignPerCycle(load, nbuckets, procs), GreedyPerCycle(load, nbuckets, procs); !reflect.DeepEqual(got, want) {
		t.Errorf("greedy-per-cycle: %v != %v", got, want)
	}
}

func TestStrategyByName(t *testing.T) {
	for name, wantType := range map[string]Strategy{
		"round-robin":      RoundRobinStrategy{},
		"random":           RandomStrategy{Seed: 7},
		"greedy-aggregate": GreedyAggregateStrategy{},
		"greedy-per-cycle": GreedyPerCycleStrategy{},
	} {
		got, err := StrategyByName(name, 7)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if reflect.TypeOf(got) != reflect.TypeOf(wantType) {
			t.Errorf("%s resolved to %T, want %T", name, got, wantType)
		}
	}
	for _, name := range []string{"bogus", "roundrobin", "aggregate", "greedy"} {
		if _, err := StrategyByName(name, 0); err == nil {
			t.Errorf("%s resolved; only the names StrategyNames lists may", name)
		}
	}
	// The per-cycle oracle must be selectable through the optional
	// interface; the static strategies must not claim it.
	g, _ := StrategyByName("greedy-per-cycle", 0)
	if _, ok := g.(PerCycleStrategy); !ok {
		t.Error("greedy-per-cycle does not implement PerCycleStrategy")
	}
	rr, _ := StrategyByName("round-robin", 0)
	if _, ok := rr.(PerCycleStrategy); ok {
		t.Error("round-robin wrongly implements PerCycleStrategy")
	}
}

func TestStrategyNames(t *testing.T) {
	want := []string{"round-robin", "random", "greedy-aggregate", "greedy-per-cycle", "adaptive"}
	if got := StrategyNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("StrategyNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		if _, err := StrategyByName(name, 1); err != nil {
			t.Errorf("canonical name %q not resolvable: %v", name, err)
		}
	}
}
