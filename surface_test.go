package mpcrete

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowedUncalled lists the exported functions and methods under
// internal/ that no command, example or benchmark names, each with the
// reason it stays. TestExportedNamesHaveCallers fails when a name here
// gains a caller, so the list can only shrink.
var allowedUncalled = map[string]string{
	// Test seams: a test switches something on or substitutes a fake.
	"PoisonRewinds": "rete: TestPoisonedRewinds in six packages reruns the differentials with recycled tokens overwritten",
	"WithSimulate":  "sweep: tests substitute a counting or failing simulate function",

	// References and oracles the tests compare against.
	"CheckSessions":          "difftest: the session-level differential oracle, run by its tests and fuzz target",
	"CheckTrace":             "difftest: engine trace against simulator conservation check, run over the corpus",
	"LoadCorpus":             "difftest: reads testdata/corpus for the differential tests of three packages",
	"ConfigFromBytes":        "difftest: maps fuzz input to a generator config",
	"RunSequential":          "sweep: the uncached in-order reference the concurrent engine is compared against",
	"ConfiguratorWMEs":       "workloads: working memory for the configurator program, a differential case of the workloads and parallel tests",
	"ConfiguratorComponents": "workloads: closed-form count the configurator program's output is checked against",
	"ConfiguratorPower":      "workloads: closed-form power draw the configurator program's output is checked against",

	// Readers only assertions need.
	"Simulations": "sweep: the cache-miss count that proves a point is simulated once",
	"BusyTotal":   "simnet: busy-time conservation across core, simnet and the recorder",
	"Spans":       "obs: tests read the recorded spans back",
	"Instants":    "obs: tests read the recorded instants back",
	"SpanTotal":   "obs: recorder totals are checked against simnet's busy times",
	"LoadPerProc": "sched: partition tests and the package example sum load per processor",
	"IncRecv":     "termdet: the per-message twin of AddRecv; the detector tests count one message at a time",

	// The paper's own method, carried by a pinned format.
	"InsertDummies": "rete: §5.2.1 method 2; RETENET3 encodes the node kind it creates",
}

// TestExportedNamesHaveCallers is ROADMAP's "no caller, no code" as a
// test: every exported function or method declared in a non-test file
// under internal/ must be named by some non-test file under internal/,
// cmd/, examples/ or benchmark/ other than at its own declaration, or be
// on allowedUncalled. The check is by name, not by type: a name shared
// with a live one can hide a dead one, never the reverse.
func TestExportedNamesHaveCallers(t *testing.T) {
	declared := map[string][]string{} // name -> declaring positions
	named := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			own := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				own[fn.Name] = true
				if root == "internal" && fn.Name.IsExported() {
					declared[fn.Name.Name] = append(declared[fn.Name.Name], fset.Position(fn.Pos()).String())
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !own[id] {
					named[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var dead []string
	for name, at := range declared {
		_, allowed := allowedUncalled[name]
		switch {
		case !named[name] && !allowed:
			dead = append(dead, name+" ("+strings.Join(at, ", ")+")")
		case named[name] && allowed:
			t.Errorf("%s has a caller now: take it off allowedUncalled", name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported, named by no command, example or benchmark: %s", d)
	}
	for name := range allowedUncalled {
		if declared[name] == nil {
			t.Errorf("%s is on allowedUncalled and declared nowhere under internal/", name)
		}
	}
	if len(allowedUncalled) > 20 {
		t.Errorf("allowedUncalled has %d entries; the limit is 20", len(allowedUncalled))
	}
}
