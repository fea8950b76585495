package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcrete/internal/analysis"
	"mpcrete/internal/workloads"
)

// TestResolveWorkload: -workload is internal/workloads' registry, whole
// and nothing else; an unknown name is refused with the registry's own
// error, which lists the names.
func TestResolveWorkload(t *testing.T) {
	for _, name := range workloads.NamedNames() {
		got, prog, wmes, err := resolveWorkload(name, "", "")
		if err != nil || got != name || prog == "" || wmes == "" {
			t.Errorf("resolveWorkload(%q) = %q, %d, %d, %v", name, got, len(prog), len(wmes), err)
		}
	}
	_, wantErr := workloads.Named("rubik")
	if _, _, _, err := resolveWorkload("rubik", "", ""); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("resolveWorkload(rubik) = %v, want the registry's %v", err, wantErr)
	}
	for _, bad := range [][3]string{
		{"", "", ""},                 // nothing selected
		{"rubik-like", "x.ops5", ""}, // both
		{"", "x.ops5", ""},           // file without wmes
	} {
		if _, _, _, err := resolveWorkload(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("resolveWorkload(%v) accepted", bad)
		}
	}
}

func TestResolveWorkloadFiles(t *testing.T) {
	dir := t.TempDir()
	pp := filepath.Join(dir, "p.ops5")
	wp := filepath.Join(dir, "w.wmes")
	os.WriteFile(pp, []byte("(p x (a) --> (halt))"), 0o644)
	os.WriteFile(wp, []byte("(a)"), 0o644)
	name, prog, wmes, err := resolveWorkload("", pp, wp)
	if err != nil || name != pp || prog == "" || wmes == "" {
		t.Fatalf("resolveWorkload files = %q, %q, %q, %v", name, prog, wmes, err)
	}
}

// TestExportsEndToEnd drives the same pipeline main wires up and pins
// that every export lands as valid JSON/CSV.
func TestExportsEndToEnd(t *testing.T) {
	rep, err := analysis.CompareModelMeasured("rubik", workloads.RubikLike, workloads.RubikLikeWMEs(3, 4), analysis.MMOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "r.json")
	if err := writeTo(jsonPath, rep.WriteJSON); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "r.trace.json")
	if err := writeTo(tracePath, rep.Dump.WriteChromeTrace); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jsonPath, tracePath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Fatalf("%s is not valid JSON", p)
		}
	}
	csvPath := filepath.Join(dir, "r.csv")
	if err := writeTo(csvPath, rep.WriteCSV); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(csvPath); len(data) == 0 {
		t.Fatal("empty CSV export")
	}
}

// TestTransportTCP: -transport tcp measures the star carrier. On
// rubik-like and tourney-like at two workers, in both root modes, the
// star fires what the goroutine runtime fires, the flight dump holds one
// cycle record per trace cycle (CompareModelMeasured refuses anything
// else, and numbers the rows from it), and the measured critical path
// never falls below the trace bound. -chaos does not compose with it:
// the chaos layer perturbs mailboxes a star does not have.
func TestTransportTCP(t *testing.T) {
	tcp, err := messagePlane("tcp")
	if err != nil || tcp == nil {
		t.Fatalf("messagePlane(tcp): nil = %v, err = %v", tcp == nil, err)
	}
	for _, name := range []string{"rubik-like", "tourney-like"} {
		wl, err := workloads.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, routed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/routed=%v", name, routed), func(t *testing.T) {
				opts := analysis.MMOptions{Workers: 2, RouteRoots: routed}
				ref, err := analysis.CompareModelMeasured(wl.Name, wl.Program, wl.WMEs, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Transport = tcp
				rep, err := analysis.CompareModelMeasured(wl.Name, wl.Program, wl.WMEs, opts)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Fired == 0 || rep.Fired != ref.Fired {
					t.Errorf("the star fired %d, the goroutine runtime %d", rep.Fired, ref.Fired)
				}
				if len(rep.Rows) == 0 || len(rep.Rows) != len(ref.Rows) || len(rep.Dump.Cycles) != len(rep.Rows) {
					t.Errorf("%d rows over %d cycle records, the goroutine runtime %d rows", len(rep.Rows), len(rep.Dump.Cycles), len(ref.Rows))
				}
				if err := rep.CheckCritPathBound(); err != nil {
					t.Error(err)
				}
			})
		}
	}
	_, err = analysis.CompareModelMeasured("rubik", workloads.RubikLike, workloads.RubikLikeWMEs(3, 4),
		analysis.MMOptions{Workers: 2, ChaosSeed: 1, Transport: tcp})
	if err == nil || !strings.Contains(err.Error(), "ChaosSeed") || !strings.Contains(err.Error(), "Transport") {
		t.Errorf("-chaos 1 -transport tcp: err = %v, want a refusal naming both", err)
	}
	if _, err := messagePlane("udp"); err == nil {
		t.Error("-transport udp accepted")
	}
}
