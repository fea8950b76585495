package sched

import (
	"fmt"
	"strings"
)

// Strategy is a named bucket-distribution policy. It unifies the
// free-function strategies (RoundRobin, Random, Greedy/GreedyAggregate,
// GreedyPerCycle) behind one interface so the sweep engine and the
// CLIs can select a policy by name instead of switching on strings.
type Strategy interface {
	// Name identifies the strategy in sweep keys and CLI flags.
	Name() string
	// Assign produces a static bucket-to-processor map. load is the
	// per-cycle bucket load (trace.BucketLoad output); uniform
	// strategies ignore it.
	Assign(load []map[int]int, nbuckets, procs int) Partition
}

// PerCycleStrategy is a Strategy that can also redistribute buckets
// every cycle — the paper's off-line greedy oracle. Callers that can
// apply per-cycle partitions should type-assert to this interface.
type PerCycleStrategy interface {
	Strategy
	// AssignPerCycle produces one partition per cycle.
	AssignPerCycle(load []map[int]int, nbuckets, procs int) []Partition
}

// RoundRobinStrategy is the paper's default distribution.
type RoundRobinStrategy struct{}

func (RoundRobinStrategy) Name() string { return "round-robin" }

func (RoundRobinStrategy) Assign(_ []map[int]int, nbuckets, procs int) Partition {
	return RoundRobin(nbuckets, procs)
}

// RandomStrategy distributes buckets uniformly at random (seeded,
// reproducible).
type RandomStrategy struct{ Seed int64 }

func (RandomStrategy) Name() string { return "random" }

func (s RandomStrategy) Assign(_ []map[int]int, nbuckets, procs int) Partition {
	return Random(nbuckets, procs, s.Seed)
}

// GreedyAggregateStrategy balances the load summed over all cycles
// with the greedy (LPT) algorithm — the realizable static variant.
type GreedyAggregateStrategy struct{}

func (GreedyAggregateStrategy) Name() string { return "greedy-aggregate" }

func (GreedyAggregateStrategy) Assign(load []map[int]int, nbuckets, procs int) Partition {
	return GreedyAggregate(load, nbuckets, procs)
}

// GreedyPerCycleStrategy is the paper's per-cycle greedy oracle. Its
// static Assign falls back to the aggregate balance for callers that
// cannot migrate buckets between cycles.
type GreedyPerCycleStrategy struct{}

func (GreedyPerCycleStrategy) Name() string { return "greedy-per-cycle" }

func (GreedyPerCycleStrategy) Assign(load []map[int]int, nbuckets, procs int) Partition {
	return GreedyAggregate(load, nbuckets, procs)
}

func (GreedyPerCycleStrategy) AssignPerCycle(load []map[int]int, nbuckets, procs int) []Partition {
	return GreedyPerCycle(load, nbuckets, procs)
}

// Strategies lists the built-in strategies in presentation order,
// with the given seed for the random policy.
func Strategies(seed int64) []Strategy {
	return []Strategy{
		RoundRobinStrategy{},
		RandomStrategy{Seed: seed},
		GreedyAggregateStrategy{},
		GreedyPerCycleStrategy{},
		AdaptiveStrategy{},
	}
}

// StrategyNames lists the canonical names StrategyByName accepts.
func StrategyNames() []string {
	names := make([]string, 0, 5)
	for _, s := range Strategies(0) {
		names = append(names, s.Name())
	}
	return names
}

// StrategyByName resolves a distribution strategy from a CLI flag or
// sweep spec. seed only affects the random strategy.
func StrategyByName(name string, seed int64) (Strategy, error) {
	switch name {
	case "round-robin":
		return RoundRobinStrategy{}, nil
	case "random":
		return RandomStrategy{Seed: seed}, nil
	case "greedy-aggregate":
		return GreedyAggregateStrategy{}, nil
	case "greedy-per-cycle":
		return GreedyPerCycleStrategy{}, nil
	case "adaptive":
		return AdaptiveStrategy{}, nil
	}
	return nil, fmt.Errorf("sched: unknown strategy %q (have %s)", name, strings.Join(StrategyNames(), ", "))
}
