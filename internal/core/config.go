package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"mpcrete/internal/sched"
	"mpcrete/internal/simnet"
	"mpcrete/internal/trace"
)

// Option mutates a Config under construction; see NewConfig.
type Option func(*Config)

// NewConfig builds a Config for the common case: the paper's cost
// model (Section 4) and the Nectar-class network latency, with the
// given number of match processors. Options override the defaults.
func NewConfig(procs int, opts ...Option) Config {
	cfg := Config{
		MatchProcs: procs,
		Costs:      DefaultCosts(),
		Latency:    NectarLatency(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithOverhead selects a message-processing overhead setting
// (Table 5-1).
func WithOverhead(o OverheadSetting) Option { return func(cfg *Config) { cfg.Overhead = o } }

// WithLatency overrides the interconnection-network latency.
func WithLatency(l simnet.Time) Option { return func(cfg *Config) { cfg.Latency = l } }

// WithPartition fixes the bucket-to-processor map.
func WithPartition(p sched.Partition) Option { return func(cfg *Config) { cfg.Partition = p } }

// WithSoftwareBroadcast serializes the cycle-start broadcast.
func WithSoftwareBroadcast() Option { return func(cfg *Config) { cfg.SoftwareBroadcast = true } }

// WithCentralRoots selects the centralized-alpha ablation.
func WithCentralRoots() Option { return func(cfg *Config) { cfg.CentralRoots = true } }

// WithPairs selects the Fig 3-2 processor-pair mapping.
func WithPairs() Option { return func(cfg *Config) { cfg.Pairs = true } }

// Distribute sets the fields through which strategy st spreads a
// trace's buckets over cfg.MatchProcs processors: PerCycle for the
// off-line per-cycle oracle; Partition plus the live Rebalance knobs
// for an online policy (the knobs enter Fingerprint, so an adaptive
// point never collides with the static point it starts from);
// Partition alone otherwise. load is trace.BucketLoad output.
func (cfg *Config) Distribute(st sched.Strategy, load []map[int]int, nbuckets int) {
	switch v := st.(type) {
	case sched.PerCycleStrategy:
		cfg.PerCycle = v.AssignPerCycle(load, nbuckets, cfg.MatchProcs)
	case sched.RebalanceStrategy:
		cfg.Partition = st.Assign(load, nbuckets, cfg.MatchProcs)
		cfg.Rebalance = v.RebalanceConfig()
	default:
		cfg.Partition = st.Assign(load, nbuckets, cfg.MatchProcs)
	}
}

// Typed validation errors. Validate returns one of these so callers
// (the sweep engine, the CLIs) can distinguish bad-spec classes
// without string matching.

// ProcCountError reports a non-positive MatchProcs.
type ProcCountError struct{ Procs int }

func (e *ProcCountError) Error() string { return fmt.Sprintf("core: MatchProcs = %d", e.Procs) }

// PartitionSizeError reports a partition whose length does not match
// the trace's bucket count. Cycle is -1 for the static partition.
type PartitionSizeError struct {
	Cycle     int
	Got, Want int
}

func (e *PartitionSizeError) Error() string {
	if e.Cycle >= 0 {
		return fmt.Sprintf("core: per-cycle partition %d covers %d buckets, trace has %d", e.Cycle, e.Got, e.Want)
	}
	return fmt.Sprintf("core: partition covers %d buckets, trace has %d", e.Got, e.Want)
}

// PerCycleCountError reports a PerCycle override whose length does not
// match the trace's cycle count.
type PerCycleCountError struct{ Got, Want int }

func (e *PerCycleCountError) Error() string {
	return fmt.Sprintf("core: %d per-cycle partitions for %d cycles", e.Got, e.Want)
}

// TopologyError reports a Contention setting without a topology to
// model the contended links on.
type TopologyError struct{}

func (e *TopologyError) Error() string {
	return "core: Contention requires a topology"
}

// IncompatibleOptionsError reports two configuration switches that
// cannot be combined.
type IncompatibleOptionsError struct{ Reason string }

func (e *IncompatibleOptionsError) Error() string { return "core: " + e.Reason }

// Validate checks the configuration against the trace it is to run
// and returns a typed error describing the first problem found.
// Simulate and Speedup call it before any simulation work starts, so
// a bad point fails fast instead of mid-run.
func (c Config) Validate(tr *trace.Trace) error {
	if c.MatchProcs <= 0 {
		return &ProcCountError{Procs: c.MatchProcs}
	}
	if c.Partition != nil {
		if len(c.Partition) != tr.NBuckets {
			return &PartitionSizeError{Cycle: -1, Got: len(c.Partition), Want: tr.NBuckets}
		}
		if err := c.Partition.Validate(c.MatchProcs); err != nil {
			return err
		}
	}
	if c.PerCycle != nil {
		if len(c.PerCycle) != len(tr.Cycles) {
			return &PerCycleCountError{Got: len(c.PerCycle), Want: len(tr.Cycles)}
		}
		for ci, p := range c.PerCycle {
			if len(p) != tr.NBuckets {
				return &PartitionSizeError{Cycle: ci, Got: len(p), Want: tr.NBuckets}
			}
			if err := p.Validate(c.MatchProcs); err != nil {
				return err
			}
		}
	}
	if c.CentralRoots && c.Pairs {
		return &IncompatibleOptionsError{Reason: "CentralRoots is not defined for the pair mapping"}
	}
	if c.Replicated && (c.Pairs || c.CentralRoots) {
		return &IncompatibleOptionsError{Reason: "Replicated excludes Pairs and CentralRoots"}
	}
	if c.Replicated && c.PerCycle != nil {
		return &IncompatibleOptionsError{Reason: "Replicated tables have no per-cycle distribution"}
	}
	if c.Rebalance.Enabled() {
		if c.PerCycle != nil {
			return &IncompatibleOptionsError{Reason: "Rebalance and PerCycle both control the per-cycle distribution"}
		}
		if c.Pairs {
			return &IncompatibleOptionsError{Reason: "Rebalance is not defined for the pair mapping"}
		}
		if c.Replicated {
			return &IncompatibleOptionsError{Reason: "Replicated tables have no buckets to migrate"}
		}
	}
	if c.Contention && c.Topology == nil {
		return &TopologyError{}
	}
	if n := c.Recorder.Tracks(); c.Recorder != nil && n != c.machineProcs() {
		return &IncompatibleOptionsError{Reason: fmt.Sprintf("the recorder has %d tracks for %d processors; build it with NewFlightRecorder", n, c.machineProcs())}
	}
	return nil
}

// machineProcs is the number of processors of the machine: the control
// and one match processor per slot, or two with Pairs.
func (c Config) machineProcs() int {
	if c.Pairs {
		return 1 + 2*c.MatchProcs
	}
	return 1 + c.MatchProcs
}

// Fingerprint returns a canonical content hash of the configuration's
// semantic fields for the given trace — the memoization key of the
// sweep engine. Two configs that would produce identical simulation
// results hash identically: observability attachments (the flight
// Recorder and Metrics, which a cached point never writes into) and
// display names (Overhead.Name) are excluded, and a nil Partition
// hashes as the round-robin default Simulate would substitute.
func (c Config) Fingerprint(tr *trace.Trace) string {
	h := sha256.New()
	fmt.Fprintf(h, "procs=%d|costs=%d,%d,%d,%d|ov=%d,%d|lat=%d|topo=%T%+v|perhop=%d|cont=%t|swb=%t|central=%t|pairs=%t|repl=%t|",
		c.MatchProcs,
		c.Costs.ConstTests, c.Costs.LeftAddDel, c.Costs.RightAddDel, c.Costs.PerSuccessor,
		c.Overhead.Send, c.Overhead.Recv,
		c.Latency, c.Topology, c.Topology, c.PerHop,
		c.Contention, c.SoftwareBroadcast, c.CentralRoots, c.Pairs, c.Replicated)
	// The partition goes in as binary, its length and then each
	// bucket's owner, without a per-bucket allocation.
	n := len(c.Partition)
	if c.Partition == nil {
		n = tr.NBuckets
	}
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+4*n), uint64(n))
	for i := 0; i < n; i++ {
		owner := i % c.MatchProcs // sched.RoundRobin's
		if c.Partition != nil {
			owner = c.Partition[i]
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(owner))
	}
	h.Write(b)
	if c.PerCycle != nil {
		fmt.Fprintf(h, "percycle=%v|", c.PerCycle)
	}
	// Rebalance knobs change the partition sequence the run evolves
	// through, so adaptive points must not share a cache entry with the
	// static point they start from (or with each other across knob
	// settings). Disabled configs hash as before.
	if c.Rebalance.Enabled() {
		fmt.Fprintf(h, "reb=%g,%g,%d|",
			c.Rebalance.Threshold, c.Rebalance.Hysteresis, c.Rebalance.MinInterval)
	}
	return hex.EncodeToString(h.Sum(nil))
}
