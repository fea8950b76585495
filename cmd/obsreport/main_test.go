package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
