package sched

import (
	"cmp"
	"slices"
)

// Rebalance configures the online adaptive repartitioner. The zero
// value disables rebalancing entirely (Enabled reports false), so it
// can be embedded in option structs without changing behaviour.
//
// The detector triggers when the per-processor imbalance (max/mean of
// decayed per-bucket activation load) reaches Threshold; a replan is
// committed only when it predicts an imbalance improvement greater
// than Hysteresis, and at most once every MinInterval cycles. This is
// the dynamic counterpart of the paper's static §5.2.2 policies: the
// paper judged migrating Rete state "too costly" to attempt, so the
// knobs here exist to let the cost be measured rather than assumed.
type Rebalance struct {
	// Threshold is the max/mean per-processor imbalance that arms a
	// migration (1.0 = perfectly even). Values <= 0 disable
	// rebalancing; values <= 1 trigger on any measurable skew.
	Threshold float64
	// Hysteresis is the minimum predicted imbalance improvement a
	// replan must deliver before buckets actually move. 0 commits any
	// strictly improving plan.
	Hysteresis float64
	// MinInterval is the minimum number of cycles between migrations.
	// Values < 1 are treated as 1 (a migration every cycle boundary is
	// allowed).
	MinInterval int
}

// Enabled reports whether the configuration turns rebalancing on.
func (r Rebalance) Enabled() bool { return r.Threshold > 0 }

// minInterval returns the effective migration cooldown.
func (r Rebalance) minInterval() int {
	if r.MinInterval < 1 {
		return 1
	}
	return r.MinInterval
}

// DefaultRebalance is a reasonable starting point for skewed
// workloads: trigger on >=30% imbalance, demand a 5% predicted
// improvement, and wait two cycles between migrations.
func DefaultRebalance() Rebalance {
	return Rebalance{Threshold: 1.3, Hysteresis: 0.05, MinInterval: 2}
}

// PartitionMoves returns the buckets (ascending) whose owner differs
// between two partitions of the same length, in one allocation (none
// when nothing moves).
func PartitionMoves(old, new Partition) []int {
	n := 0
	for b := range old {
		if b < len(new) && old[b] != new[b] {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	moves := make([]int, 0, n)
	for b := range old {
		if b < len(new) && old[b] != new[b] {
			moves = append(moves, b)
		}
	}
	return moves
}

// Balancer is the deterministic online hot-bucket detector and
// migration planner shared by the live parallel runtime, the TCP
// control plane, and the trace simulator. Callers feed it per-bucket
// activation counts as cycles execute (Observe) and ask
// at every cycle boundary whether to migrate (EndCycle). All
// arithmetic is integral — per-bucket loads decay by halving each
// cycle — so every engine that replays the same observation sequence
// plans the identical migrations.
type Balancer struct {
	reb   Rebalance
	procs int
	part  Partition   // current assignment (owned copy)
	load  []int64     // decayed per-bucket activation load
	per   []int64     // per-processor scratch (imbalanceOf runs every cycle, plan per replan)
	hot   []hotBucket // plan's scratch: the buckets with load
	since int         // cycles since the last migration
}

// hotBucket is a bucket with decayed load, as plan packs it.
type hotBucket struct {
	b int
	l int64
}

// NewBalancer creates a balancer over a copy of the initial partition.
func NewBalancer(reb Rebalance, initial Partition, procs int) *Balancer {
	return &Balancer{
		reb:   reb,
		procs: procs,
		part:  append(Partition(nil), initial...),
		load:  make([]int64, len(initial)),
		per:   make([]int64, procs),
		since: reb.minInterval(), // eligible immediately
	}
}

// Observe records n activations processed for bucket b this cycle.
func (bl *Balancer) Observe(b int, n int64) {
	if b >= 0 && b < len(bl.load) {
		bl.load[b] += n
	}
}

// Partition returns the current assignment. The slice is shared;
// callers must not mutate it.
func (bl *Balancer) Partition() Partition { return bl.part }

// Imbalance returns max/mean per-processor decayed load under the
// current partition (1.0 when idle or perfectly even).
func (bl *Balancer) Imbalance() float64 { return bl.imbalanceOf(bl.part) }

// imbalanceOf computes max/mean per-processor load under p without
// allocating (it runs once per cycle on the live runtime's control
// path, where steady-state cycles are pinned at O(1) allocations).
func (bl *Balancer) imbalanceOf(p Partition) float64 {
	var max, sum int64
	per := bl.per
	for i := range per {
		per[i] = 0
	}
	for b, l := range bl.load {
		per[p[b]] += l
	}
	for _, l := range per {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(bl.procs)
	return float64(max) / mean
}

// EndCycle closes out a cycle: it decides whether the decayed loads
// justify a migration, then applies the per-cycle decay. When a
// migration is warranted it commits the new assignment internally and
// returns a fresh copy of it with ok=true; otherwise it returns
// (nil, false).
func (bl *Balancer) EndCycle() (Partition, bool) {
	bl.since++
	migrated := false
	if bl.since >= bl.reb.minInterval() {
		migrated = bl.replan()
	}
	for b := range bl.load {
		bl.load[b] /= 2
	}
	if !migrated {
		return nil, false
	}
	return append(Partition(nil), bl.part...), true
}

// replan runs the detector and, when armed, plans a sticky greedy
// (LPT) reassignment of the hot buckets. Returns whether a migration
// was committed.
func (bl *Balancer) replan() bool {
	cur := bl.imbalanceOf(bl.part)
	if cur < bl.reb.Threshold {
		return false
	}
	cand := bl.plan()
	if cur-bl.imbalanceOf(cand) <= bl.reb.Hysteresis {
		return false
	}
	bl.part = cand
	bl.since = 0
	return true
}

// plan LPT-packs the hot buckets (heaviest first, ties by bucket
// index) onto the least-loaded processor, preferring each bucket's
// current owner on load ties so cold state does not churn. Buckets
// with no decayed load keep their current owner.
func (bl *Balancer) plan() Partition {
	n := 0
	for _, l := range bl.load {
		if l > 0 {
			n++
		}
	}
	if cap(bl.hot) < n {
		bl.hot = make([]hotBucket, 0, n)
	}
	hot := bl.hot[:0]
	for b, l := range bl.load {
		if l > 0 {
			hot = append(hot, hotBucket{b, l})
		}
	}
	slices.SortFunc(hot, func(x, y hotBucket) int {
		if c := cmp.Compare(y.l, x.l); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
	bl.hot = hot
	cand := append(Partition(nil), bl.part...)
	per := bl.per
	clear(per)
	for _, h := range hot {
		best := 0
		for p := 1; p < bl.procs; p++ {
			if per[p] < per[best] {
				best = p
			}
		}
		if cur := bl.part[h.b]; per[cur] == per[best] {
			best = cur
		}
		cand[h.b] = best
		per[best] += h.l
	}
	return cand
}

// AdaptiveStrategy is the online rebalancing policy as a sweep-able
// Strategy: it starts from the round-robin assignment (the only thing
// a real system can do without trace foreknowledge) and then lets the
// engine's Balancer migrate hot buckets as the run unfolds. Engines
// that cannot migrate treat it as plain round-robin.
type AdaptiveStrategy struct {
	// Rebalance overrides the detector knobs; the zero value means
	// DefaultRebalance().
	Rebalance Rebalance
}

func (AdaptiveStrategy) Name() string { return "adaptive" }

func (AdaptiveStrategy) Assign(_ []map[int]int, nbuckets, procs int) Partition {
	return RoundRobin(nbuckets, procs)
}

// RebalanceConfig returns the effective detector knobs.
func (s AdaptiveStrategy) RebalanceConfig() Rebalance {
	if !s.Rebalance.Enabled() {
		return DefaultRebalance()
	}
	return s.Rebalance
}

// RebalanceStrategy is a Strategy that wants the engine to rebalance
// buckets online while the run executes. Callers that support live
// migration (the simulator via Config.Rebalance, the parallel runtime
// via Options.Rebalance) should type-assert to this interface; others
// fall back to the static Assign.
type RebalanceStrategy interface {
	Strategy
	RebalanceConfig() Rebalance
}
