package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"mpcrete/internal/core"
	"mpcrete/internal/sched"
	"mpcrete/internal/sweep"
	"mpcrete/internal/trace"
	"mpcrete/internal/workloads"
)

const simProcs = 32

// simExpect is the outcome of one Fig 5-2 sweep: simulated time is a
// pure function of the inputs, so it must repeat exactly.
type simExpect struct {
	Events   int64              `json:"events_per_op"`
	Speedups map[string]float64 `json:"speedups"` // "<section>/<run>" -> speedup at P=32
}

func (e simExpect) equal(o simExpect) error {
	if e.Events != o.Events {
		return fmt.Errorf("simulated %d events, want %d", e.Events, o.Events)
	}
	for k, want := range o.Speedups {
		if got := e.Speedups[k]; got != want {
			return fmt.Errorf("speedup %s = %v, want %v", k, got, want)
		}
	}
	if len(e.Speedups) != len(o.Speedups) {
		return fmt.Errorf("%d speedup points, want %d", len(e.Speedups), len(o.Speedups))
	}
	return nil
}

// expectedSeed1 holds the committed seed-1 outcome (the paper's
// round-robin partition): a check that does not depend on this
// process having computed the same wrong answer twice.
//
//go:embed testdata/expected.json
var expectedSeed1 []byte

type simInstance struct {
	traces     []*trace.Trace
	partitions []sched.Partition // nil entries: the round-robin default
	expect     simExpect
	setup      map[string]*spanAgg
	last       simExpect // traced phase: the most recent op's outcome
}

func setupSim(sc setupCtx) (instance, error) {
	t := sc.tr.newTrack("set-up", 16)
	sp := t.begin("workloads.sections_gen", 0)
	s := &simInstance{traces: []*trace.Trace{workloads.Rubik(), workloads.Tourney(), workloads.Weaver()}}
	t.end(sp)
	// Seed 1 is the paper's experiment; any other seed replays the same
	// traces over a seeded random bucket partition.
	s.partitions = make([]sched.Partition, len(s.traces))
	if sc.seed != 1 {
		for i, tr := range s.traces {
			s.partitions[i] = sched.Random(tr.NBuckets, simProcs, sc.seed)
		}
	}
	if t != nil {
		s.setup = aggregate(t)
	}
	if sc.seed == 1 {
		if err := json.Unmarshal(expectedSeed1, &s.expect); err != nil {
			return nil, fmt.Errorf("testdata/expected.json: %w", err)
		}
		return s, nil
	}
	// Other seeds have no committed outcome: every op must equal the
	// first.
	first, err := s.sweep(0, nil)
	if err != nil {
		return nil, err
	}
	s.expect = first
	return s, nil
}

func (s *simInstance) close() {}

func (s *simInstance) inputDigest() uint64 {
	h := fnv.New64a()
	for i, tr := range s.traces {
		fmt.Fprintf(h, "%s %d %v\n", tr.Name, tr.NBuckets, s.partitions[i])
	}
	return h.Sum64()
}

// config is the simulated machine for one point of the sweep.
func (s *simInstance) config(section int, ov core.OverheadSetting) core.Config {
	opts := []core.Option{core.WithOverhead(ov)}
	if p := s.partitions[section]; p != nil {
		opts = append(opts, core.WithPartition(p))
	}
	return core.NewConfig(simProcs, opts...)
}

// sweep runs Fig 5-2 once: three sections x Table 5-1 runs 1-4 at 32
// processors, each point a parallel simulation plus its baseline.
func (s *simInstance) sweep(i int, t *track) (simExpect, error) {
	out := simExpect{Speedups: map[string]float64{}}
	for si, tr := range s.traces {
		for _, ov := range core.OverheadRuns() {
			sp := t.begin("core.speedup", i)
			speedup, res, base, err := core.Speedup(tr, s.config(si, ov))
			t.end(sp)
			if err != nil {
				return out, err
			}
			out.Events += res.Events + base.Events
			out.Speedups[tr.Name+"/"+ov.Name] = speedup
		}
	}
	return out, nil
}

func (s *simInstance) op(client, i int, t *track) (int64, error) {
	got, err := s.sweep(i, t)
	if err != nil {
		return got.Events, err
	}
	if t != nil {
		s.last = got
	}
	return got.Events, got.equal(s.expect)
}

func (s *simInstance) layers(lc *layerCtx) {
	out := lc.out
	ops := float64(max(1, lc.traced.ops))
	out["workloads.sections_gen_ms"] = s.setup["workloads.sections_gen"].mean() / 1e3
	out["core.events_per_op"] = float64(lc.traced.work) / ops
	out["core.ns_per_event"] = ratio(lc.spans["core.speedup"].total()*1e3, float64(lc.traced.work))
	for _, tr := range s.traces {
		for _, run := range []string{"run1", "run4"} {
			out[fmt.Sprintf("core.speedup_%s_p32_%s", tr.Name, run)] = s.last.Speedups[tr.Name+"/"+run]
		}
	}

	// The baselines alone, to split an op between the 32-processor
	// simulations and their one-processor denominators.
	start := time.Now()
	for si, tr := range s.traces {
		for _, ov := range core.OverheadRuns() {
			if _, err := core.Simulate(tr, core.Baseline(s.config(si, ov))); err != nil {
				return
			}
		}
	}
	out["core.baseline_share"] = ratio(float64(time.Since(start).Microseconds()), lc.spans["op"].mean())

	start = time.Now()
	for _, tr := range s.traces {
		sched.GreedyAggregate(tr.BucketLoad(false), tr.NBuckets, simProcs)
	}
	out["sched.greedy_partition_us"] = float64(time.Since(start).Microseconds()) / float64(len(s.traces))

	// The same figure through the sweep engine: cold (every point
	// simulated, baselines memoized) and warm (every point cached).
	eng := sweep.New()
	spec := sweep.Spec{
		Name:      "bench-fig52",
		Traces:    s.traces,
		Procs:     []int{simProcs},
		Overheads: core.OverheadRuns(),
		Baseline:  true,
	}
	for _, name := range []string{"sweep.cold_ms", "sweep.warm_ms"} {
		start = time.Now()
		rs, err := eng.Run(spec)
		if err != nil || rs.Err() != nil {
			return
		}
		out[name] = float64(time.Since(start).Microseconds()) / 1e3
	}
}
