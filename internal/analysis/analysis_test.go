package analysis

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mpcrete/internal/core"
	"mpcrete/internal/trace"
	"mpcrete/internal/workloads"
)

func TestAnalyzeTourneyFindsCrossProduct(t *testing.T) {
	r := Analyze(workloads.Tourney())
	if len(r.HotNodes) == 0 {
		t.Fatal("no hot nodes detected")
	}
	hn := r.HotNodes[0]
	if hn.Node != workloads.TourneyHotNode || hn.Bucket != workloads.TourneyHotBucket {
		t.Errorf("hot node = %+v, want node %d bucket %d", hn, workloads.TourneyHotNode, workloads.TourneyHotBucket)
	}
	if hn.Share < 0.95 {
		t.Errorf("share = %v", hn.Share)
	}
	// The multiple-modify effect at the same site.
	if len(r.ModifyEffects) == 0 {
		t.Fatal("multiple-modify effect not detected")
	}
	if me := r.ModifyEffects[0]; me.Node != workloads.TourneyHotNode {
		t.Errorf("modify effect = %+v", me)
	}
	// A copy-and-constraint suggestion targets the hot node, and the
	// bounded-joins recompile is offered as its compile-level
	// alternative.
	var candc, bounded bool
	for _, s := range r.Suggestions {
		if s.Kind == SuggestCopyAndConstrain && s.Node == workloads.TourneyHotNode {
			candc = true
		}
		if s.Kind == SuggestBoundedJoins && s.Node == workloads.TourneyHotNode {
			bounded = true
		}
	}
	if !candc {
		t.Errorf("no copy-and-constraint suggestion in %v", r.Suggestions)
	}
	if !bounded {
		t.Errorf("no bounded-joins suggestion in %v", r.Suggestions)
	}
}

func TestAnalyzeWeaverFindsFanoutAndSmallCycles(t *testing.T) {
	r := Analyze(workloads.Weaver())
	if len(r.Fanouts) == 0 {
		t.Fatal("fan-out bottleneck not detected")
	}
	if r.Fanouts[0].MaxFanout != 40 {
		t.Errorf("max fanout = %d, want 40", r.Fanouts[0].MaxFanout)
	}
	smalls := 0
	for _, c := range r.Cycles {
		if c.Small {
			smalls++
		}
	}
	// Cycles 0, 2, 3 are ≤100 tokens; the hot cycle (~150) exceeds the
	// paper's small-cycle bound.
	if smalls != 3 {
		t.Errorf("small cycles = %d, want 3", smalls)
	}
	if r.Cycles[1].Small {
		t.Error("the hot cycle should not be flagged small")
	}
	unshare, cluster := false, false
	for _, s := range r.Suggestions {
		switch s.Kind {
		case SuggestUnshare:
			unshare = true
		case SuggestCluster:
			cluster = true
		}
	}
	if !unshare || !cluster {
		t.Errorf("want unshare and cluster suggestions, got %v", r.Suggestions)
	}
}

func TestAnalyzeRubikFindsImbalanceNotCrossProduct(t *testing.T) {
	r := Analyze(workloads.Rubik())
	if len(r.HotNodes) != 0 {
		t.Errorf("rubik should have no cross-product nodes, got %v", r.HotNodes)
	}
	if len(r.Fanouts) != 0 {
		t.Errorf("rubik should have no fan-out bottlenecks, got %v", r.Fanouts)
	}
	// The left-cluster imbalance shows up as redistribute suggestions.
	redistributes := 0
	for _, s := range r.Suggestions {
		if s.Kind == SuggestRedistribute {
			redistributes++
		}
	}
	if redistributes == 0 {
		t.Errorf("no redistribute suggestion for rubik's clustered lefts: %v", r.Suggestions)
	}
}

func TestAutoTuneImprovesSimulatedSpeedup(t *testing.T) {
	for _, gen := range []func() *trace.Trace{workloads.Tourney, workloads.Weaver} {
		tr := gen()
		tuned, report := AutoTune(tr)
		if tuned == tr {
			t.Fatalf("%s: autotune did not transform", tr.Name)
		}
		if err := tuned.Validate(); err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{
			MatchProcs: 32,
			Costs:      core.DefaultCosts(),
			Overhead:   core.OverheadRuns()[1],
			Latency:    core.NectarLatency(),
		}
		base, _, _, err := core.Speedup(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		after, _, _, err := core.Speedup(tuned, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if after <= base {
			t.Errorf("%s: autotune %.2f -> %.2f, want improvement (report: %+v)", tr.Name, base, after, report.Suggestions)
		}
	}
}

func TestAutoTuneLeavesCleanTraceAlone(t *testing.T) {
	// A trace with no hot nodes or fan-out sites is returned as-is.
	tr := &trace.Trace{
		Name:     "clean",
		NBuckets: 64,
		Cycles: []*trace.Cycle{{
			Changes: 1,
			Roots: []*trace.Activation{
				{Node: 1, Side: trace.RightSide, Bucket: 3},
				{Node: 2, Side: trace.RightSide, Bucket: 5},
			},
		}},
	}
	tuned, _ := AutoTune(tr)
	if tuned != tr {
		t.Error("clean trace was transformed")
	}
}

func TestRenderReport(t *testing.T) {
	var buf bytes.Buffer
	_, r := AutoTune(workloads.Tourney())
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"analysis of tourney", "cross-product", "multiple-modify", "suggestions", "copy-and-constraint"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestAnalyzeIsDeterministic: what traceanalyze prints is a function of
// the trace. The detectors gather their sites in maps, so twenty
// analyses of the tourney trace — rendered, and every field of every
// cycle, the bucket-load CVs' last bits included — must read the same.
func TestAnalyzeIsDeterministic(t *testing.T) {
	tr := workloads.Tourney()
	var first string
	for i := 0; i < 20; i++ {
		_, r := AutoTune(tr)
		var buf bytes.Buffer
		r.Render(&buf)
		got := fmt.Sprintf("%s%+v", buf.String(), *r)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("analysis %d of the tourney trace differs from the first", i+1)
		}
	}
}
