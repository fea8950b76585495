package analysis

import (
	"bytes"
	"strings"
	"testing"

	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/transport"
	"mpcrete/internal/workloads"
)

// mmWorkloads are the acceptance workloads: the Rubik-like and
// Tourney-like programs from internal/workloads.
var mmWorkloads = []struct {
	name, prog, wmes string
}{
	{"rubik", workloads.RubikLike, workloads.RubikLikeWMEs(3, 4)},
	{"tourney", workloads.TourneyLike, workloads.TourneyLikeWMEs(4, 3)},
}

// TestModelMeasuredCritPathBound is the acceptance check: the measured
// critical path is >= the trace CriticalPath lower bound on every
// cycle, for both workloads, at one and several workers, on both
// message planes, and on the star carrier.
func TestModelMeasuredCritPathBound(t *testing.T) {
	for _, wl := range mmWorkloads {
		for _, cfg := range []struct {
			workers int
			routed  bool
			star    bool
		}{
			{1, false, false},
			{4, false, false},
			{4, true, false},
			{4, false, true},
		} {
			name := wl.name + "/" + map[bool]string{false: "broadcast", true: "routed"}[cfg.routed]
			opts := MMOptions{Workers: cfg.workers, RouteRoots: cfg.routed}
			if cfg.star {
				// The star carrier: worker turns recorded in the workers'
				// own rings and handed over in their turn frames.
				name += "/star"
				opts.Transport = func(n *rete.Network) parallel.Transport { return transport.NewLoopback(n) }
			}
			t.Run(name, func(t *testing.T) {
				rep, err := CompareModelMeasured(wl.name, wl.prog, wl.wmes, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Rows) == 0 {
					t.Fatal("empty report")
				}
				if err := rep.CheckCritPathBound(); err != nil {
					t.Fatal(err)
				}
				// Both sides walk the same activation forest with the same
				// counting rule, so the bound should in fact be tight.
				for _, row := range rep.Rows {
					if int(row.MeasuredCritPath) != row.CritPathBound {
						t.Errorf("cycle %d: measured critical path %d != trace bound %d",
							row.Cycle, row.MeasuredCritPath, row.CritPathBound)
					}
				}
				// Activation totals are directly comparable: the model
				// replays the same trace the measured run re-executes.
				var predActs, measActs int64
				for _, row := range rep.Rows {
					predActs += int64(row.PredictedActs)
					measActs += row.MeasuredHandles
				}
				if predActs != measActs {
					t.Errorf("predicted activations %d != measured handles %d", predActs, measActs)
				}
				if rep.Dump == nil {
					t.Error("report carries no flight dump")
				}
			})
		}
	}
}

func TestModelMeasuredAlignment(t *testing.T) {
	rep, err := CompareModelMeasured("rubik", workloads.RubikLike, workloads.RubikLikeWMEs(3, 4), MMOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rep.Rows {
		if row.Cycle != i+1 {
			t.Fatalf("row %d carries cycle %d", i, row.Cycle)
		}
		if row.PredictedUS <= 0 {
			t.Fatalf("cycle %d: non-positive predicted time %f", row.Cycle, row.PredictedUS)
		}
		if row.MeasuredUS < 0 {
			t.Fatalf("cycle %d: negative measured time %f", row.Cycle, row.MeasuredUS)
		}
	}
	if rep.Fired == 0 {
		t.Fatal("no firings recorded")
	}
	if rep.PredictedMakespanUS <= 0 || rep.MeasuredMakespanUS <= 0 {
		t.Fatalf("makespans: predicted %f, measured %f", rep.PredictedMakespanUS, rep.MeasuredMakespanUS)
	}
}

// TestModelMeasuredChaos exercises the comparison under chaos
// scheduling: the MRA trajectory (and hence the bound check) must be
// schedule-independent.
func TestModelMeasuredChaos(t *testing.T) {
	rep, err := CompareModelMeasured("tourney", workloads.TourneyLike, workloads.TourneyLikeWMEs(3, 2), MMOptions{
		Workers: 4, ChaosSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckCritPathBound(); err != nil {
		t.Fatal(err)
	}
}

func TestModelMeasuredExports(t *testing.T) {
	rep, err := CompareModelMeasured("rubik", workloads.RubikLike, workloads.RubikLikeWMEs(2, 3), MMOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "rubik"`, `"critpath_bound"`, `"measured_critpath"`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}

	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(rep.Rows)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(rep.Rows)+1)
	}
	if !strings.HasPrefix(lines[0], "cycle,predicted_us") {
		t.Fatalf("CSV header = %q", lines[0])
	}

	var txt bytes.Buffer
	if err := rep.Render(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "measured >= trace bound") {
		t.Fatalf("render did not confirm the bound:\n%s", txt.String())
	}

	// CheckCritPathBound must actually reject a violated bound.
	bad := *rep
	bad.Rows = append([]MMRow(nil), rep.Rows...)
	bad.Rows[0].CritPathBound = int(bad.Rows[0].MeasuredCritPath) + 1
	if err := bad.CheckCritPathBound(); err == nil {
		t.Fatal("CheckCritPathBound accepted a violated bound")
	}
}
