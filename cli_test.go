package mpcrete

// End-to-end tests of the command-line tools: each binary is run via
// `go run` against real inputs, exercising flag parsing, file I/O, and
// the full pipeline (program -> trace -> simulation -> analysis).

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mpcrete/internal/obs"
	"mpcrete/internal/workloads"
)

// goRun invokes `go run ./cmd/<tool> args...` and returns combined
// output and the run's error.
func goRun(tool string, args ...string) (string, error) {
	out, err := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...).CombinedOutput()
	return string(out), err
}

// runTool runs a tool that must succeed and returns combined output.
func runTool(t *testing.T, tool string, args ...string) string {
	t.Helper()
	out, err := goRun(tool, args...)
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", tool, args, err, out)
	}
	return out
}

// failTool runs a command line that must be refused: it fails the test
// unless the tool exits non-zero, and returns combined output.
func failTool(t *testing.T, tool string, args ...string) string {
	t.Helper()
	out, err := goRun(tool, args...)
	if _, refused := err.(*exec.ExitError); !refused {
		t.Fatalf("%s %v: err = %v, want a non-zero exit\n%s", tool, args, err, out)
	}
	return out
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()

	// 1. ops5run executes a program and records a trace.
	prog := filepath.Join(dir, "count.ops5")
	wmes := filepath.Join(dir, "count.wmes")
	tracePath := filepath.Join(dir, "count.trace")
	if err := os.WriteFile(prog, []byte(`
(p count-up
    (counter ^value <v> ^limit <l>)
    (counter ^value < <l>)
    -->
    (write tick <v>)
    (modify 1 ^value (compute <v> + 1)))
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wmes, []byte("(counter ^value 0 ^limit 3)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, "ops5run", "-program", prog, "-wmes", wmes, "-trace", tracePath, "-v")
	for _, want := range []string{"tick 0", "tick 1", "tick 2", "fired 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("ops5run output missing %q:\n%s", want, out)
		}
	}

	// 2. mpcsim replays the recorded trace.
	out = runTool(t, "mpcsim", "-trace", tracePath, "-procs", "4", "-overhead", "run2")
	for _, want := range []string{"speedup:", "makespan:", "network idle"} {
		if !strings.Contains(out, want) {
			t.Errorf("mpcsim output missing %q:\n%s", want, out)
		}
	}
}

func TestCLISectionsAndAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	tourney := filepath.Join(dir, "tourney.trace")

	out := runTool(t, "tracegen", "-section", "tourney", "-o", tourney)
	if !strings.Contains(out, "10667L/83R") {
		t.Errorf("tracegen stats missing Table 5-2 counts:\n%s", out)
	}

	out = runTool(t, "traceanalyze", "-trace", tourney, "-tune", "-procs", "8")
	for _, want := range []string{"cross-product", "copy-and-constraint", "speedup at 8 processors"} {
		if !strings.Contains(out, want) {
			t.Errorf("traceanalyze output missing %q:\n%s", want, out)
		}
	}

	// Simulate with the pair mapping and a topology for flag coverage.
	out = runTool(t, "mpcsim", "-trace", tourney, "-procs", "4", "-pairs", "-topology", "mesh", "-perhop", "0.2")
	if !strings.Contains(out, "pairs=true") {
		t.Errorf("mpcsim pairs output:\n%s", out)
	}
}

func TestCLIExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	out := runTool(t, "experiments", "-table", "5-2")
	for _, want := range []string{"rubik", "2388", "6114", "tourney", "10667"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments table 5-2 missing %q:\n%s", want, out)
		}
	}
	out = runTool(t, "experiments", "-exp", "probmodel")
	if !strings.Contains(out, "P(even)") {
		t.Errorf("probmodel output:\n%s", out)
	}
}

// TestCLIAdaptivePartition: mpcsim -partition adaptive arms the online
// rebalancer instead of running the round-robin assignment it starts
// from, so the two print different makespans on the tourney section.
func TestCLIAdaptivePartition(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	tourney := filepath.Join(t.TempDir(), "tourney.trace")
	runTool(t, "tracegen", "-section", "tourney", "-o", tourney)
	makespan := regexp.MustCompile(`makespan: \S+ µs`)
	got := map[string]string{}
	for _, name := range []string{"round-robin", "adaptive"} {
		out := runTool(t, "mpcsim", "-trace", tourney, "-procs", "16", "-partition", name)
		if got[name] = makespan.FindString(out); got[name] == "" {
			t.Fatalf("mpcsim -partition %s printed no makespan:\n%s", name, out)
		}
	}
	if got["adaptive"] == got["round-robin"] {
		t.Errorf("-partition adaptive and round-robin both print %q", got["adaptive"])
	}
}

// TestCLIParallelOnlyFlags: an ops5run flag that acts on the parallel
// runtime is refused without -parallel, not ignored.
func TestCLIParallelOnlyFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, row := range []struct {
		args []string
		want string
	}{
		{[]string{"-rebalance", "1.3"}, "add -parallel N"},
		{[]string{"-rebalance-interval", "2"}, "add -parallel N"},
		{[]string{"-migrate-every", "2"}, "add -parallel N"},
		{[]string{"-route-roots"}, "add -parallel N"},
		{[]string{"-parallel", "2", "-rebalance-interval", "2"}, "add -rebalance"},
	} {
		out := failTool(t, "ops5run", append([]string{"-workload", "counter"}, row.args...)...)
		if !strings.Contains(out, row.want) {
			t.Errorf("ops5run %v: output does not say %q:\n%s", row.args, row.want, out)
		}
	}
}

// TestCLIParallelExcise: an excise reaches the network the parallel
// runtime matches over, so the excised production stops firing there as
// it does in the sequential run. Across processes no excise could reach
// the workers' own networks, so -transport tcp refuses such a program
// before it listens.
func TestCLIParallelExcise(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	prog, wmes := filepath.Join(dir, "excise.ops5"), filepath.Join(dir, "excise.wmes")
	if err := os.WriteFile(prog, []byte(`
(p start (go ^n {<n> < 4}) --> (write start <n>) (modify 1 ^n (compute <n> + 1)))
(p stop (go ^n 2) (flag) --> (write stop) (excise start) (remove 2) (modify 1 ^n 0))
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wmes, []byte("(go ^n 0) (flag)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-program", prog, "-wmes", wmes, "-watch", "1"}
	seq := runTool(t, "ops5run", args...)
	if !strings.HasSuffix(seq, "3. stop 2 4\nstop\n") {
		t.Fatalf("sequential run does not end with the excise:\n%s", seq)
	}
	if par := runTool(t, "ops5run", append(args, "-parallel", "2")...); par != seq {
		t.Errorf("-parallel 2 transcript differs from the sequential one:\n%s\nwant:\n%s", par, seq)
	}
	out := failTool(t, "ops5run", append(args, "-parallel", "2", "-transport", "tcp")...)
	if !strings.Contains(out, "-transport tcp") || !strings.Contains(out, "excises start") {
		t.Errorf("-transport tcp refusal does not name the flag and the excise:\n%s", out)
	}
}

// TestExamples runs each example program and checks one line of what it
// prints.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for name, want := range map[string]string{
		"quickstart":  "fired 4 productions, 10 wmes in working memory, halted=true",
		"monkey":      "after excising the observer: 0 instantiations",
		"distributed": "conflict sets identical",
	} {
		out, err := exec.Command("go", "run", "./examples/"+name).CombinedOutput()
		if err != nil || !strings.Contains(string(out), want) {
			t.Errorf("examples/%s: err = %v, output lacks %q:\n%s", name, err, want, out)
		}
	}
}

// TestCLITimelineAndFlightDump: ops5run -timeline and -flight-dump are two
// formats of one recording. The workload is queens because its load cycle
// is the one cycle among the bundled workloads that outgrows the in-place
// head, and only a handed-off cycle has worker turns to draw.
func TestCLITimelineAndFlightDump(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	timeline, flight := filepath.Join(dir, "timeline.json"), filepath.Join(dir, "flight.json")
	runTool(t, "ops5run", "-workload", "queens", "-parallel", "2", "-timeline", timeline, "-flight-dump", flight)

	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
			ID   int     `json:"id"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	var dump obs.FlightDump
	for path, into := range map[string]any{timeline: &trace, flight: &dump} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	tracks := map[int]string{}
	flows := map[int]string{} // batch id -> the phases seen
	slices, intervals, workerTurns, waits := 0, 0, 0, 0
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				tracks[e.Tid] = e.Args.Name
			}
		case "s", "f":
			flows[e.ID] += e.Ph
		case "X":
			slices++
			switch e.Name {
			case "turn":
				if e.Dur > 0 && strings.HasPrefix(tracks[e.Tid], "worker ") {
					workerTurns++
				}
				intervals++
			case "wait":
				if e.Dur > 0 && tracks[e.Tid] == "control" {
					waits++
				}
				intervals++
			case "cycle":
				intervals++
			}
		}
	}
	if len(tracks) != 3 || tracks[0] != "worker 0" || tracks[1] != "worker 1" || tracks[2] != "control" {
		t.Errorf("timeline tracks = %v", tracks)
	}
	if workerTurns < 1 || waits != 1 {
		t.Errorf("timeline draws %d worker turns and %d control waits with a duration, want >= 1 and 1", workerTurns, waits)
	}
	paired := 0
	for _, phases := range flows {
		if strings.Contains(phases, "s") && strings.Contains(phases, "f") {
			paired++
		}
	}
	if paired < 1 {
		t.Errorf("timeline has no send joined to its receive by a flow: %d flow ids", len(flows))
	}
	// The same events: a slice per event, but one per interval's two.
	events := 0
	for _, tr := range dump.Tracks {
		events += len(tr.Events)
	}
	if events != slices+intervals {
		t.Errorf("flight dump holds %d events, the timeline %d slices of which %d intervals", events, slices, intervals)
	}
}

// TestCLIWorkloadRegistry: tracegen -demo and obsreport -workload take
// exactly the names of internal/workloads' registry, and refuse any
// other with the registry's own error.
func TestCLIWorkloadRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	_, unknown := workloads.Named("rubik")
	for _, tool := range [][]string{{"tracegen", "-o", os.DevNull, "-demo"}, {"obsreport", "-workers", "2", "-workload"}} {
		for _, name := range workloads.NamedNames() {
			runTool(t, tool[0], append(tool[1:], name)...)
		}
		if out := failTool(t, tool[0], append(tool[1:], "rubik")...); !strings.Contains(out, unknown.Error()) {
			t.Errorf("%s: output does not carry %q:\n%s", tool[0], unknown, out)
		}
	}
}
