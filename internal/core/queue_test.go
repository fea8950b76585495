package core

import (
	"reflect"
	"testing"

	"mpcrete/internal/simnet"
	"mpcrete/internal/trace"
	"mpcrete/internal/workloads"
)

// queueCounts runs one simulation on a scratch simulator and reads its
// event queue's unexported counters: pushes to the out-of-order heap,
// and those of them diverted from a lane whose tail was later.
func queueCounts(t *testing.T, tr *trace.Trace, cfg Config) (heapPushes, fallbacks int64) {
	t.Helper()
	if err := cfg.Validate(tr); err != nil {
		t.Fatal(err)
	}
	s := getScratch()
	defer putScratch(s)
	s.run(tr, cfg)
	q := reflect.ValueOf(s.sim).Elem().FieldByName("events")
	return q.FieldByName("heapPushes").Int(), q.FieldByName("fallbacks").Int()
}

// TestFig52PushesStayInLanes pins that on the Fig 5-2 sweep's 24 runs
// (three sections, Table 5-1 runs 1-4, 32 processors and the baseline)
// every event but the per-cycle cycle-start injection waits in a lane:
// the heap sees one push per cycle and no fallback.
func TestFig52PushesStayInLanes(t *testing.T) {
	for _, tr := range []*trace.Trace{workloads.Rubik(), workloads.Tourney(), workloads.Weaver()} {
		for _, ov := range OverheadRuns() {
			cfg := NewConfig(32, WithOverhead(ov))
			for _, c := range []Config{cfg, Baseline(cfg)} {
				heapPushes, fallbacks := queueCounts(t, tr, c)
				if heapPushes != int64(len(tr.Cycles)) || fallbacks != 0 {
					t.Errorf("%s/%s P=%d: %d heap pushes (%d fallbacks), want the %d cycle starts only",
						tr.Name, ov.Name, c.MatchProcs, heapPushes, fallbacks, len(tr.Cycles))
				}
			}
		}
	}
}

// TestMeshPushesFallBack pins that the fallback is live: on a mesh the
// per-hop transit lets a later send of one processor arrive before an
// earlier one, and that arrival goes to the heap.
func TestMeshPushesFallBack(t *testing.T) {
	cfg := NewConfig(8, WithOverhead(OverheadRuns()[1]), func(c *Config) {
		c.Topology, c.PerHop = simnet.Mesh2D{W: 3, H: 3}, simnet.US(2)
	})
	if _, fallbacks := queueCounts(t, workloads.Tourney(), cfg); fallbacks == 0 {
		t.Error("no push fell back to the heap on a mesh")
	}
}
