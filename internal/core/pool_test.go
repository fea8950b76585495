package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"mpcrete/internal/obs"
	"mpcrete/internal/sched"
	"mpcrete/internal/simnet"
	"mpcrete/internal/trace"
	"mpcrete/internal/workloads"
)

// simulateAndDrop runs a generated section with a recorder attached
// and keeps nothing of it but weak pointers to one root activation and
// to the recorder.
func simulateAndDrop(t *testing.T) (weak.Pointer[trace.Activation], weak.Pointer[obs.CausalRecorder]) {
	tr := workloads.Tourney()
	cfg := NewConfig(8, WithOverhead(OverheadRuns()[2]))
	rec, err := NewFlightRecorder(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = rec
	if _, err := Simulate(tr, cfg); err != nil {
		t.Fatal(err)
	}
	return weak.Make(tr.Cycles[0].Roots[0]), weak.Make(cfg.Recorder)
}

// TestSimulateKeepsNoTrace pins that the pooled scratch holds nothing
// of its last run. One collection is the discriminating count: a
// scratch put back uncleared sits in sync.Pool's victim cache after
// one GC and would keep the trace and the recorder reachable.
func TestSimulateKeepsNoTrace(t *testing.T) {
	root, rec := simulateAndDrop(t)
	runtime.GC()
	if root.Value() != nil {
		t.Error("a root activation of the last run is still reachable after one GC")
	}
	if rec.Value() != nil {
		t.Error("the last run's recorder is still reachable after one GC")
	}
}

// poolPoint is one simulated point: a trace and a configuration built
// afresh for each run (a recorder is the run's own).
type poolPoint struct {
	name string
	tr   *trace.Trace
	cfg  func() Config
}

// poolPoints spans every mapping and machine shape Simulate knows, so
// that scratch left by any one of them meets every other.
func poolPoints() []poolPoint {
	traces := []*trace.Trace{workloads.Rubik(), workloads.Tourney(), workloads.Weaver(), allocTrace(12)}
	shapes := []struct {
		name string
		cfg  func(tr *trace.Trace) Config
	}{
		{"p1", func(*trace.Trace) Config { return NewConfig(1) }},
		{"p8-run2", func(*trace.Trace) Config { return NewConfig(8, WithOverhead(OverheadRuns()[1])) }},
		{"p32-run4", func(*trace.Trace) Config { return NewConfig(32, WithOverhead(OverheadRuns()[3])) }},
		{"p8-pairs", func(*trace.Trace) Config { return NewConfig(8, WithPairs(), WithOverhead(OverheadRuns()[2])) }},
		{"p32-pairs", func(*trace.Trace) Config { return NewConfig(32, WithPairs()) }},
		{"p8-replicated", func(*trace.Trace) Config {
			return NewConfig(8, WithOverhead(OverheadRuns()[1]), func(c *Config) { c.Replicated = true })
		}},
		{"p4-replicated", func(*trace.Trace) Config {
			return NewConfig(4, WithOverhead(OverheadRuns()[2]), func(c *Config) { c.Replicated = true })
		}},
		{"p8-central", func(*trace.Trace) Config { return NewConfig(8, WithCentralRoots(), WithOverhead(OverheadRuns()[3])) }},
		{"p8-rebalance", func(*trace.Trace) Config {
			return NewConfig(8, func(c *Config) { c.Rebalance = sched.Rebalance{Threshold: 1.1} })
		}},
		{"p8-percycle", func(tr *trace.Trace) Config {
			return NewConfig(8, func(c *Config) { c.PerCycle = sched.GreedyPerCycle(tr.BucketLoad(false), tr.NBuckets, 8) })
		}},
		{"p8-mesh-contention", func(*trace.Trace) Config {
			return NewConfig(8, WithOverhead(OverheadRuns()[1]), func(c *Config) {
				c.Topology, c.PerHop, c.Contention = simnet.Mesh2D{W: 3, H: 3}, simnet.US(0.2), true
			})
		}},
		{"p32-swbcast", func(*trace.Trace) Config {
			return NewConfig(32, WithSoftwareBroadcast(), WithOverhead(OverheadRuns()[2]))
		}},
		{"p8-recorder", func(tr *trace.Trace) Config {
			cfg := NewConfig(8)
			rec, err := NewFlightRecorder(tr, cfg)
			if err != nil {
				panic(err)
			}
			cfg.Recorder = rec
			return cfg
		}},
	}
	var pts []poolPoint
	for _, tr := range traces {
		for _, sh := range shapes {
			pts = append(pts, poolPoint{
				name: tr.Name + "/" + sh.name,
				tr:   tr,
				cfg:  func() Config { return sh.cfg(tr) },
			})
		}
	}
	return pts
}

// TestPooledScratchAcrossShapes runs every point serially, then has
// eight goroutines walk the same points concurrently, each from its own
// starting point, each Simulate drawing whatever scratch the pool hands
// it. Every concurrent Result must equal the serial one.
func TestPooledScratchAcrossShapes(t *testing.T) {
	pts := poolPoints()
	want := make([]*Result, len(pts))
	for i, pt := range pts {
		res, err := Simulate(pt.tr, pt.cfg())
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		want[i] = res
	}
	const workers = 8
	rounds := len(pts)
	if testing.Short() {
		rounds = len(pts) / 4
	}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (w*len(pts)/workers + k) % len(pts)
				got, err := Simulate(pts[i].tr, pts[i].cfg())
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("worker %d: %s: result differs from the serial run", w, pts[i].name)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestScratchShedsTheLongestIdle pins the free list's bound: it keeps
// at most GOMAXPROCS simulators, and a full list sheds the one idle the
// longest rather than the one just returned, whose storage fits the
// work at hand. testing.AllocsPerRun runs at GOMAXPROCS 1, so without
// this a measured run could draw a simulator warmed on another shape.
func TestScratchShedsTheLongestIdle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	scratch.mu.Lock()
	scratch.free = nil
	scratch.mu.Unlock()
	a, b, c := getScratch(), getScratch(), getScratch()
	putScratch(a)
	putScratch(b)
	putScratch(c)
	if len(scratch.free) != 2 || scratch.free[0] != b || scratch.free[1] != c {
		t.Fatalf("free list %v after returning %p, %p, %p at GOMAXPROCS 2; want the last two", scratch.free, a, b, c)
	}
	if s := getScratch(); s != c {
		t.Errorf("getScratch returned %p, want the last returned %p", s, c)
	}
}
