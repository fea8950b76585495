package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mpcrete/internal/core"
	"mpcrete/internal/obs"
	"mpcrete/internal/sched"
	"mpcrete/internal/trace"
)

// synthTrace builds a small deterministic trace: `cycles` cycles of
// `roots` root activations each, every third root fanning out two
// successors, spread over nbuckets buckets.
func synthTrace(name string, nbuckets, cycles, roots int) *trace.Trace {
	tr := &trace.Trace{Name: name, NBuckets: nbuckets}
	for c := 0; c < cycles; c++ {
		cy := &trace.Cycle{Changes: 1}
		for r := 0; r < roots; r++ {
			side := trace.RightSide
			if (c+r)%2 == 0 {
				side = trace.LeftSide
			}
			a := &trace.Activation{Node: r, Side: side, Bucket: (c*roots + r) % nbuckets}
			if r%3 == 0 {
				a.Children = []*trace.Activation{
					{Node: 100 + r, Side: trace.LeftSide, Bucket: (r * 5) % nbuckets, Insts: 1},
					{Node: 200 + r, Side: trace.RightSide, Bucket: (r*7 + c) % nbuckets},
				}
			}
			cy.Roots = append(cy.Roots, a)
		}
		tr.Cycles = append(tr.Cycles, cy)
	}
	if err := tr.Validate(); err != nil {
		panic(err)
	}
	return tr
}

// fullSpec exercises every axis: two traces, four proc counts, two
// overheads, two strategies (one per-cycle), two variants, baselines.
func fullSpec() Spec {
	return Spec{
		Name:      "test-grid",
		Traces:    []*trace.Trace{synthTrace("alpha", 16, 3, 9), synthTrace("beta", 8, 2, 5)},
		Procs:     []int{1, 2, 4, 8},
		Overheads: core.OverheadRuns()[:2],
		Strategies: []sched.Strategy{
			sched.RoundRobinStrategy{},
			sched.GreedyPerCycleStrategy{},
		},
		Variants: []Variant{
			{Name: "plain"},
			{Name: "sw-bcast", Mutate: func(c *core.Config) { c.SoftwareBroadcast = true }},
		},
		Baseline: true,
	}
}

// TestParallelMatchesSequential is the parity guarantee: the
// concurrent engine's aggregated results are byte-identical to the
// sequential reference run of the same spec. Run under -race in CI.
func TestParallelMatchesSequential(t *testing.T) {
	spec := fullSpec()
	par, err := New(Workers(8)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New().RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Err(); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.MarshalIndent(par, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.MarshalIndent(seq, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		gl := strings.Split(string(gotJSON), "\n")
		wl := strings.Split(string(wantJSON), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("parallel and sequential results diverge at line %d:\n par: %s\n seq: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatal("parallel and sequential results differ in length")
	}
	wantCells := 2 * 4 * 2 * 2 * 2
	if len(par.Cells) != wantCells {
		t.Errorf("cells = %d, want %d", len(par.Cells), wantCells)
	}
}

// TestExpansionOrderDeterministic pins the axis nesting: traces,
// variants, overheads, strategies, procs (innermost).
func TestExpansionOrderDeterministic(t *testing.T) {
	spec := fullSpec()
	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := Key{Trace: "alpha", Procs: 1, Overhead: "run1", Strategy: "round-robin", Variant: "plain"}
	if pts[0].Key != want {
		t.Errorf("first point = %+v, want %+v", pts[0].Key, want)
	}
	last := Key{Trace: "beta", Procs: 8, Overhead: "run2", Strategy: "greedy-per-cycle", Variant: "sw-bcast"}
	if pts[len(pts)-1].Key != last {
		t.Errorf("last point = %+v, want %+v", pts[len(pts)-1].Key, last)
	}
	// Procs vary fastest.
	if pts[1].Key.Procs != 2 || pts[1].Key.Trace != "alpha" {
		t.Errorf("second point = %+v, want alpha/p2", pts[1].Key)
	}
}

// TestMemoizedPointSimulatesOnce proves the cache contract: a point
// requested many times — concurrently, across duplicate axes, and
// across separate Run calls on one engine — is simulated exactly once,
// and the shared baseline behind a speedup sweep runs once in total.
func TestMemoizedPointSimulatesOnce(t *testing.T) {
	var calls atomic.Int64
	eng := New(Workers(8), WithSimulate(func(tr *trace.Trace, cfg core.Config) (*core.Result, error) {
		calls.Add(1)
		return core.Simulate(tr, cfg)
	}))
	tr := synthTrace("gamma", 16, 3, 9)
	spec := Spec{
		Name:   "memo",
		Traces: []*trace.Trace{tr},
		Procs:  []int{2, 4, 8},
		// run1 and the zero-value overhead are the same machine
		// (0/0 µs); the fingerprint must dedupe them.
		Overheads: []core.OverheadSetting{{}, core.OverheadRuns()[0]},
		Baseline:  true,
	}
	res, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// 3 distinct proc counts + 1 shared baseline. The six requested
	// cells (3 procs × 2 equivalent overheads) collapse to three
	// simulations; every cell's baseline is the same run.
	if got := calls.Load(); got != 4 {
		t.Errorf("simulations = %d, want 4 (3 unique points + 1 shared baseline)", got)
	}
	if got := eng.Simulations(); got != 4 {
		t.Errorf("Simulations() = %d, want 4", got)
	}

	// A second run of the same spec is served entirely from cache.
	if _, err := eng.Run(spec); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("simulations after re-run = %d, want 4 (all cached)", got)
	}

	// The duplicated overhead rows report identical result pointers.
	if res.Cells[0].Result != res.Cells[3].Result {
		t.Error("equivalent overhead cells did not share the memoized result")
	}
}

// TestPanicIsolation pins per-run panic containment: a crashing point
// fails its own cell, sibling points complete.
func TestPanicIsolation(t *testing.T) {
	eng := New(Workers(4), WithSimulate(func(tr *trace.Trace, cfg core.Config) (*core.Result, error) {
		if cfg.MatchProcs == 4 {
			panic("injected failure")
		}
		return core.Simulate(tr, cfg)
	}))
	spec := Spec{
		Name:   "panic",
		Traces: []*trace.Trace{synthTrace("delta", 8, 2, 5)},
		Procs:  []int{2, 4, 8},
	}
	res, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[1].Err == "" || !strings.Contains(res.Cells[1].Err, "injected failure") {
		t.Errorf("panicking cell error = %q, want injected failure", res.Cells[1].Err)
	}
	if res.Cells[0].Err != "" || res.Cells[2].Err != "" {
		t.Errorf("sibling cells failed: %q / %q", res.Cells[0].Err, res.Cells[2].Err)
	}
	if res.Cells[0].Result == nil || res.Cells[2].Result == nil {
		t.Error("sibling cells missing results")
	}
	if res.Err() == nil {
		t.Error("Results.Err() did not surface the failed cell")
	}
}

// TestValidationErrorLandsInCell pins that a bad point (caught by
// core's up-front Validate) reports in its own cell too.
func TestValidationErrorLandsInCell(t *testing.T) {
	tr := synthTrace("epsilon", 8, 2, 5)
	res, err := New().Run(Spec{
		Name:   "invalid",
		Traces: []*trace.Trace{tr},
		Procs:  []int{2},
		Variants: []Variant{{
			Name:   "bad-partition",
			Mutate: func(c *core.Config) { c.Partition = make(sched.Partition, 3) },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Err == "" {
		t.Error("invalid config did not error its cell")
	}
}

// TestProgressMetrics checks the obs-registry reporting contract.
func TestProgressMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Workers(4), Metrics(reg))
	spec := Spec{
		Name:     "progress",
		Traces:   []*trace.Trace{synthTrace("zeta", 8, 2, 5)},
		Procs:    []int{1, 2, 4},
		Baseline: true,
	}
	if _, err := eng.Run(spec); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("sweep/points_total").Value(); got != 3 {
		t.Errorf("points_total = %v, want 3", got)
	}
	if got := reg.Gauge("sweep/points_done").Value(); got != 3 {
		t.Errorf("points_done = %v, want 3", got)
	}
	if got := reg.Gauge("sweep/eta_ms").Value(); got != 0 {
		t.Errorf("eta_ms at completion = %v, want 0", got)
	}
	// p=1 with zero overhead IS the baseline: its fingerprint matches,
	// so at least one of the three baseline requests hits the cache.
	if got := reg.Counter("sweep/cache_hits").Value(); got < 2 {
		t.Errorf("cache_hits = %v, want >= 2", got)
	}
	if got := reg.Counter("sweep/simulations").Value(); got != int64(eng.Simulations()) {
		t.Errorf("simulations counter %v != engine count %d", got, eng.Simulations())
	}
}

// TestProgressGaugesEndAtTotal: eight workers step one progress
// concurrently over 96 points, and once Run returns its gauges read
// exactly the total done and no time remaining, whichever worker
// finished last. Run it with -count=50: a worker that published an
// older count after a newer one shows up as points_done below total or
// a nonzero eta_ms.
func TestProgressGaugesEndAtTotal(t *testing.T) {
	var procs []int
	for p := 1; p <= 24; p++ {
		procs = append(procs, p)
	}
	reg := obs.NewRegistry()
	// Points are held back eight at a time and let go together, so that
	// every worker steps the progress at once.
	var mu sync.Mutex
	held, release := 0, make(chan struct{})
	point := func(*trace.Trace, core.Config) (*core.Result, error) {
		mu.Lock()
		wait := release
		if held++; held == 8 {
			held = 0
			close(release)
			release = make(chan struct{})
		}
		mu.Unlock()
		<-wait
		return &core.Result{}, nil
	}
	res, err := New(Workers(8), Metrics(reg), WithSimulate(point)).Run(Spec{
		Name:      "progress-many",
		Traces:    []*trace.Trace{synthTrace("theta", 8, 2, 5)},
		Procs:     procs,
		Overheads: core.OverheadRuns(),
	})
	if err != nil {
		t.Fatal(err)
	}
	total := float64(len(res.Cells))
	if total != float64(len(procs)*len(core.OverheadRuns())) {
		t.Fatalf("%v cells, want %d", total, len(procs)*len(core.OverheadRuns()))
	}
	if got := reg.Gauge("sweep/points_total").Value(); got != total {
		t.Errorf("points_total = %v, want %v", got, total)
	}
	if got := reg.Gauge("sweep/points_done").Value(); got != total {
		t.Errorf("points_done = %v, want %v", got, total)
	}
	if got := reg.Gauge("sweep/eta_ms").Value(); got != 0 {
		t.Errorf("eta_ms at completion = %v, want 0", got)
	}
}

// TestGroups checks the series-grouping helper experiments build
// their curves with.
func TestGroups(t *testing.T) {
	res, err := New(Workers(4)).Run(Spec{
		Name:      "groups",
		Traces:    []*trace.Trace{synthTrace("eta", 8, 2, 5)},
		Procs:     []int{1, 2},
		Overheads: core.OverheadRuns()[:3],
		Baseline:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	groups := res.Groups()
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 (one per overhead)", len(groups))
	}
	for _, g := range groups {
		if len(g) != 2 {
			t.Errorf("group %s has %d cells, want 2", g[0].Key, len(g))
		}
	}
	if groups[1][0].Key.Overhead != "run2" {
		t.Errorf("second group overhead = %q, want run2", groups[1][0].Key.Overhead)
	}
}
