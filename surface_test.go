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
	"Poison":       "alloc: TestPoisonedRewinds in six packages reruns the differentials with recycled storage overwritten",
	"WithSimulate": "sweep: tests substitute a counting or failing simulate function",

	// References and oracles the tests compare against.
	"LoadCorpus":             "difftest: reads testdata/corpus for the differential tests of three packages",
	"ConfigFromBytes":        "difftest: maps fuzz input to a generator config",
	"RunSequential":          "sweep: the uncached in-order reference the concurrent engine is compared against",
	"ConfiguratorWMEs":       "workloads: working memory for the configurator program, a differential case of the workloads and parallel tests",
	"ConfiguratorComponents": "workloads: closed-form count the configurator program's output is checked against",
	"ConfiguratorPower":      "workloads: closed-form power draw the configurator program's output is checked against",

	// Readers only assertions need.
	"Simulations": "sweep: the cache-miss count that proves a point is simulated once",
	"BusyTotal":   "simnet: busy-time conservation across core, simnet and the flight recorder",
	"LoadPerProc": "sched: partition tests and the package example sum load per processor",

	// Called by the standard library through an interface.
	"MarshalText":   "obs: encoding/json calls it on every event of a flight dump, so a kind travels by name",
	"UnmarshalText": "obs: encoding/json calls it when a flight dump is read back",
}

// eachSourceFile parses every non-test Go file under internal/, cmd/,
// examples/ and benchmark/ and hands it to visit with the root it is under.
func eachSourceFile(t *testing.T, visit func(root, path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err == nil {
				visit(root, path, fset, f)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
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
	eachSourceFile(t, func(root, path string, fset *token.FileSet, f *ast.File) {
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
	})

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

// allowedUnset lists the exported option fields no non-test file outside
// their declaring file sets, each with the reason it stays.
// TestOptionFieldsHaveSetters fails when a field here gains a setter.
var allowedUnset = map[string]string{
	"core.Config.Contention":       "core: link contention; only TestNetworkNotBottleneckUnderContention, the §5.1 bandwidth check, turns it on",
	"difftest.CheckOptions.Budget": "difftest: the conflict-set cap that ends a runaway generated program; tests tighten the default to stay fast",

	// difftest.GenConfig: cmd/difftest sets the three shape flags; the
	// rest are driven by the fuzzer's bytes through ConfigFromBytes, in
	// the declaring file.
	"difftest.GenConfig.MaxCEs":       "difftest: fuzzer byte 1",
	"difftest.GenConfig.Classes":      "difftest: fuzzer byte 2",
	"difftest.GenConfig.Attrs":        "difftest: fuzzer byte 3",
	"difftest.GenConfig.Values":       "difftest: fuzzer byte 4",
	"difftest.GenConfig.PredProb":     "difftest: fuzzer byte 7",
	"difftest.GenConfig.MakeWeight":   "difftest: fuzzer byte 8",
	"difftest.GenConfig.RemoveWeight": "difftest: fuzzer byte 9",
	"difftest.GenConfig.ModifyWeight": "difftest: fuzzer byte 10",
	"difftest.GenConfig.MaxActions":   "difftest: fuzzer byte 11",
	"difftest.GenConfig.InitialWMEs":  "difftest: fuzzer byte 12",
}

// TestOptionFieldsHaveSetters is "no setter, no knob": every exported
// field of an exported struct under internal/ whose name ends in Options,
// Config or Spec must be set — a composite-literal key, or the selector
// on the left of an assignment — by some non-test file under internal/,
// cmd/, examples/ or benchmark/ other than the one that declares it, or
// be on allowedUnset. By name, like TestExportedNamesHaveCallers.
func TestOptionFieldsHaveSetters(t *testing.T) {
	type field struct{ name, file, at string } // name is package.Struct.Field
	var fields []field
	setIn := map[string]map[string]bool{} // field name -> files that set it
	set := func(e ast.Expr, file string) {
		var id *ast.Ident
		switch e := e.(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return
		}
		if setIn[id.Name] == nil {
			setIn[id.Name] = map[string]bool{}
		}
		setIn[id.Name][file] = true
	}
	eachSourceFile(t, func(root, path string, fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := n.Name.Name
				if !ok || root != "internal" || !n.Name.IsExported() ||
					!(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec")) {
					break
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, field{f.Name.Name + "." + name + "." + id.Name, path, fset.Position(id.Pos()).String()})
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						set(kv.Key, path)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if _, ok := lhs.(*ast.SelectorExpr); ok {
						set(lhs, path)
					}
				}
			}
			return true
		})
	})

	declared := map[string]bool{}
	for _, f := range fields {
		declared[f.name] = true
		setters := setIn[f.name[strings.LastIndexByte(f.name, '.')+1:]]
		hasSetter := len(setters) > 1 || len(setters) == 1 && !setters[f.file]
		_, allowed := allowedUnset[f.name]
		switch {
		case !hasSetter && !allowed:
			t.Errorf("exported option field set by no command, example, benchmark or other file: %s (%s)", f.name, f.at)
		case hasSetter && allowed:
			t.Errorf("%s has a setter now: take it off allowedUnset", f.name)
		}
	}
	for name := range allowedUnset {
		if !declared[name] {
			t.Errorf("%s is on allowedUnset and declared nowhere under internal/", name)
		}
	}
	if len(allowedUnset) > 12 {
		t.Errorf("allowedUnset has %d entries; the limit is 12", len(allowedUnset))
	}
}
