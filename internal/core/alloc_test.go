package core

import (
	"runtime"
	"testing"

	"mpcrete/internal/sched"
	"mpcrete/internal/trace"
	"mpcrete/internal/workloads"
)

// allocTrace builds a synthetic section of identical cycles: every
// cycle fans a handful of roots into successor waves across buckets,
// exercising broadcasts, remote sends, local follow-ons, and
// instantiation messages.
func allocTrace(cycles int) *trace.Trace {
	tr := &trace.Trace{Name: "alloc", NBuckets: 32}
	for c := 0; c < cycles; c++ {
		cy := &trace.Cycle{Changes: 2, RootInsts: 1}
		for r := 0; r < 6; r++ {
			root := act('L', '+', r, 0,
				act('R', '+', (r+7)%32, 1),
				act('L', '+', (r+13)%32, 0,
					act('L', '+', (r+21)%32, 1)))
			cy.Roots = append(cy.Roots, root)
		}
		tr.Cycles = append(tr.Cycles, cy)
	}
	return tr
}

// resultObjects is what a warmed Simulate allocates, whatever the
// trace's length: the Result's own objects and nothing else —
//
//	the *Result itself,
//	LeftActsPerSlot and ActsPerSlot (row headers) and one backing
//	array of counts under each,
//	CycleTimes and MsgsPerCycle,
//	Net.Procs (simnet.Stats).
//
// The event queue and its lanes, the pending rings, the flight
// buffers, the payload free lists, the owner index and the default
// partition are pooled scratch and cost nothing once warm.
const resultObjects = 8

// TestSimulateSteadyStateAllocs pins that a run allocates only what
// its Result holds: the same object count at 8 cycles and at 72 of the
// same per-cycle workload (24 activations and about 20 messages each).
// A collection runs between the warm-up run and the measured ones: the
// scratch free list keeps its simulators through it.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	cfg := NewConfig(8)
	for _, cycles := range []int{8, 72} {
		tr := allocTrace(cycles)
		run := func() {
			if _, err := Simulate(tr, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		runtime.GC()
		if allocs := testing.AllocsPerRun(10, run); allocs != resultObjects {
			t.Errorf("%d cycles: a warmed Simulate allocates %.1f objects, want the Result's %d", cycles, allocs, resultObjects)
		}
	}
}

// TestRecordedSimulateAllocs pins the cost of watching in allocations:
// a warmed Simulate into a pre-built flight recorder allocates what an
// unrecorded one does, at 8 cycles and at 72. Every event is a store
// into a ring the recorder already holds, and a cycle's record reuses
// the storage of the one it evicts.
func TestRecordedSimulateAllocs(t *testing.T) {
	for _, cycles := range []int{8, 72} {
		tr := allocTrace(cycles)
		cfg := NewConfig(8)
		rec, err := NewFlightRecorder(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Recorder = rec
		run := func() {
			if _, err := Simulate(tr, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		runtime.GC()
		if allocs := testing.AllocsPerRun(10, run); allocs != resultObjects {
			t.Errorf("%d cycles: a warmed recorded Simulate allocates %.1f objects, want the Result's %d", cycles, allocs, resultObjects)
		}
	}
}

// TestRebalanceSimulateAllocs pins what a warmed adaptive run costs:
// the tourney section at P = 8 under Rebalance{Threshold: 1.1}, whose
// three migrations move 789 buckets. Beyond the Result's objects the
// run allocates its plan — a partition and a move list per cycle, and
// per migration the balancer's candidate, hot list and sort and the
// moves it names — and nothing per activation: the planner feeds each
// cycle's activations to the balancer one by one. It reads 127 (202
// while the planner built a bucket-load map per cycle).
func TestRebalanceSimulateAllocs(t *testing.T) {
	tr := workloads.Tourney()
	cfg := NewConfig(8, func(c *Config) { c.Rebalance = sched.Rebalance{Threshold: 1.1} })
	run := func() {
		if _, err := Simulate(tr, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	runtime.GC()
	if allocs := testing.AllocsPerRun(10, run); allocs > 127 {
		t.Errorf("a warmed adaptive tourney run allocates %.1f objects, want at most 127", allocs)
	}
}
