// Package mpcrete's root benchmark suite regenerates every table and
// figure of the paper's evaluation under `go test -bench`. Each
// benchmark reports the headline quantity of its experiment as a
// custom metric (speedup, improvement factor, etc.), so the bench
// output doubles as the numbers tabulated in EXPERIMENTS.md.
package mpcrete

import (
	"bytes"
	"fmt"
	"testing"

	"mpcrete/internal/analysis"

	"mpcrete/internal/core"
	"mpcrete/internal/engine"
	"mpcrete/internal/experiments"
	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/sweep"
	"mpcrete/internal/trace"
	"mpcrete/internal/workloads"
)

// sectionsForBench caches the generated sections.
var sectionsForBench = map[string]func() *trace.Trace{
	"rubik":   workloads.Rubik,
	"tourney": workloads.Tourney,
	"weaver":  workloads.Weaver,
}

func benchSpeedup(b *testing.B, tr *trace.Trace, cfg core.Config) {
	b.Helper()
	var sp float64
	for i := 0; i < b.N; i++ {
		var err error
		sp, _, _, err = core.Speedup(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sp, "speedup")
}

// BenchmarkFig51ZeroOverhead regenerates Figure 5-1: speedups with
// zero message-passing overheads.
func BenchmarkFig51ZeroOverhead(b *testing.B) {
	for name, gen := range sectionsForBench {
		tr := gen()
		for _, p := range []int{8, 16, 32} {
			b.Run(fmt.Sprintf("%s/p%d", name, p), func(b *testing.B) {
				benchSpeedup(b, tr, core.Config{
					MatchProcs: p,
					Costs:      core.DefaultCosts(),
					Latency:    core.NectarLatency(),
				})
			})
		}
	}
}

// BenchmarkFig52OverheadSweep regenerates Figure 5-2: the impact of
// the Table 5-1 message-processing overheads at 32 processors.
func BenchmarkFig52OverheadSweep(b *testing.B) {
	for name, gen := range sectionsForBench {
		tr := gen()
		for _, ov := range core.OverheadRuns() {
			b.Run(fmt.Sprintf("%s/%s", name, ov.Name), func(b *testing.B) {
				benchSpeedup(b, tr, core.Config{
					MatchProcs: 32,
					Costs:      core.DefaultCosts(),
					Overhead:   ov,
					Latency:    core.NectarLatency(),
				})
			})
		}
	}
}

// BenchmarkTable52Activations regenerates Table 5-2: the activation
// counts of the three sections (reported as metrics).
func BenchmarkTable52Activations(b *testing.B) {
	for name, gen := range sectionsForBench {
		b.Run(name, func(b *testing.B) {
			var s trace.Stats
			for i := 0; i < b.N; i++ {
				s = gen().Stats()
			}
			b.ReportMetric(float64(s.LeftActivations), "left")
			b.ReportMetric(float64(s.RightActivations), "right")
		})
	}
}

// BenchmarkFig54Unsharing regenerates Figure 5-4: Weaver speedups
// with the unsharing transformation (run2 overheads, 32 processors).
func BenchmarkFig54Unsharing(b *testing.B) {
	weaver := workloads.Weaver()
	unshared := trace.SplitFanout(weaver, 10, 4)
	cfg := core.Config{
		MatchProcs: 32,
		Costs:      core.DefaultCosts(),
		Overhead:   core.OverheadRuns()[1],
		Latency:    core.NectarLatency(),
	}
	b.Run("base", func(b *testing.B) { benchSpeedup(b, weaver, cfg) })
	b.Run("unshared", func(b *testing.B) { benchSpeedup(b, unshared, cfg) })
}

// BenchmarkFig55Distribution regenerates Figure 5-5: the left-token
// distribution across 16 processors for Rubik, reporting the max/mean
// imbalance of the first cycle.
func BenchmarkFig55Distribution(b *testing.B) {
	var d experiments.Fig55Data
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.Fig55()
		if err != nil {
			b.Fatal(err)
		}
	}
	max, sum := 0, 0
	for _, v := range d.Cycle1 {
		if v > max {
			max = v
		}
		sum += v
	}
	b.ReportMetric(float64(max)*float64(len(d.Cycle1))/float64(sum), "max/mean")
}

// BenchmarkFig56CopyConstraint regenerates Figure 5-6: Tourney with
// copy-and-constraint on the cross-product node (run2, 32 procs).
func BenchmarkFig56CopyConstraint(b *testing.B) {
	tourney := workloads.Tourney()
	cc := trace.ScatterNode(tourney, workloads.TourneyHotNode, 8)
	cfg := core.Config{
		MatchProcs: 32,
		Costs:      core.DefaultCosts(),
		Overhead:   core.OverheadRuns()[1],
		Latency:    core.NectarLatency(),
	}
	b.Run("base", func(b *testing.B) { benchSpeedup(b, tourney, cfg) })
	b.Run("copy-and-constraint", func(b *testing.B) { benchSpeedup(b, cc, cfg) })
}

// BenchmarkGreedyDistribution regenerates the Section 5.2.2
// distribution-strategy comparison (the paper's ~1.4x greedy gain).
func BenchmarkGreedyDistribution(b *testing.B) {
	for name, gen := range sectionsForBench {
		tr := gen()
		base := core.Config{MatchProcs: 16, Costs: core.DefaultCosts(), Latency: core.NectarLatency()}
		b.Run(name+"/roundrobin", func(b *testing.B) { benchSpeedup(b, tr, base) })
		b.Run(name+"/random", func(b *testing.B) {
			cfg := base
			cfg.Partition = sched.Random(tr.NBuckets, 16, 12345)
			benchSpeedup(b, tr, cfg)
		})
		b.Run(name+"/greedy", func(b *testing.B) {
			cfg := base
			cfg.PerCycle = sched.GreedyPerCycle(tr.BucketLoad(false), tr.NBuckets, 16)
			benchSpeedup(b, tr, cfg)
		})
	}
}

// BenchmarkProbModel regenerates the Section 5.2.2 balls-in-bins
// analysis, reporting the speedup bound at P=16.
func BenchmarkProbModel(b *testing.B) {
	m := sched.Model{Buckets: 512, Active: 64, Procs: 16}
	var r sched.Result
	for i := 0; i < b.N; i++ {
		r = m.MonteCarlo(2000, 7)
	}
	b.ReportMetric(r.SpeedupBound, "bound")
	b.ReportMetric(m.PEven(), "P(even)")
}

// BenchmarkGenerations regenerates the Section 1 motivation: the same
// mapping on first-generation vs new-generation MPC hardware.
func BenchmarkGenerations(b *testing.B) {
	for i, m := range experiments.Machines() {
		m := m
		_ = i
		b.Run(m.Name, func(b *testing.B) {
			benchSpeedup(b, workloads.Rubik(), core.Config{
				MatchProcs: 32,
				Costs:      core.DefaultCosts(),
				Overhead:   m.Overhead,
				Latency:    m.Latency,
				Topology:   m.Topology,
				PerHop:     m.PerHop,
			})
		})
	}
}

// Ablation benchmarks: design choices called out in DESIGN.md.

// BenchmarkAblationRootGranularity compares the paper's grouped,
// broadcast-and-filter root distribution against centralized constant
// tests with per-root messages.
func BenchmarkAblationRootGranularity(b *testing.B) {
	tr := workloads.Rubik()
	cfg := core.Config{
		MatchProcs: 16,
		Costs:      core.DefaultCosts(),
		Overhead:   core.OverheadRuns()[2],
		Latency:    core.NectarLatency(),
	}
	b.Run("grouped", func(b *testing.B) { benchSpeedup(b, tr, cfg) })
	b.Run("central", func(b *testing.B) {
		c := cfg
		c.CentralRoots = true
		benchSpeedup(b, tr, c)
	})
}

// BenchmarkAblationBroadcast compares hardware and software broadcast
// of the cycle packet.
func BenchmarkAblationBroadcast(b *testing.B) {
	tr := workloads.Weaver()
	cfg := core.Config{
		MatchProcs: 32,
		Costs:      core.DefaultCosts(),
		Overhead:   core.OverheadRuns()[3],
		Latency:    core.NectarLatency(),
	}
	b.Run("hardware", func(b *testing.B) { benchSpeedup(b, tr, cfg) })
	b.Run("software", func(b *testing.B) {
		c := cfg
		c.SoftwareBroadcast = true
		benchSpeedup(b, tr, c)
	})
}

// BenchmarkAblationProcessorPairs compares the Fig 3-3 single-
// processor mapping with the Fig 3-2 processor-pair mapping at equal
// partition count (the pair machine uses twice the processors).
func BenchmarkAblationProcessorPairs(b *testing.B) {
	tr := workloads.Rubik()
	cfg := core.Config{
		MatchProcs: 16,
		Costs:      core.DefaultCosts(),
		Overhead:   core.OverheadRuns()[1],
		Latency:    core.NectarLatency(),
	}
	b.Run("single", func(b *testing.B) { benchSpeedup(b, tr, cfg) })
	b.Run("pairs", func(b *testing.B) {
		c := cfg
		c.Pairs = true
		benchSpeedup(b, tr, c)
	})
}

// BenchmarkAblationHashedMemories compares hashed token memories
// against the classic linear memories (NBuckets=1) in the sequential
// matcher — the data-structure choice the whole mapping rests on. The
// workload is a discriminating equijoin over large memories, where the
// paper cites up to a 10x reduction in token comparisons; a
// cross-product join would show no difference by construction.
func BenchmarkAblationHashedMemories(b *testing.B) {
	prog, err := ops5.ParseProgram(`
(p link (node ^id <v>) (edge ^from <v>) --> (halt))
`)
	if err != nil {
		b.Fatal(err)
	}
	const n = 600
	for _, bench := range []struct {
		name     string
		nbuckets int
	}{{"hashed1024", 1024}, {"linear", 1}} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, err := rete.Compile(prog.Productions)
				if err != nil {
					b.Fatal(err)
				}
				m := rete.NewMatcher(net, rete.MatcherOptions{NBuckets: bench.nbuckets})
				id := 1
				add := func(w *ops5.WME) {
					w.ID, w.TimeTag = id, id
					id++
					m.Apply([]rete.Change{{Tag: rete.Add, WME: w}})
				}
				for j := 0; j < n; j++ {
					add(ops5.NewWME("node", "id", j))
				}
				for j := 0; j < n; j++ {
					add(ops5.NewWME("edge", "from", j, "to", (j+1)%n))
				}
			}
		})
	}
}

// BenchmarkAblationSharing compares shared and unshared network
// compilation for the sequential engine.
func BenchmarkAblationSharing(b *testing.B) {
	for _, bench := range []struct {
		name string
	}{{"shared"}, {"unshared"}} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := ops5.ParseProgram(workloads.BlocksWorld)
				if err != nil {
					b.Fatal(err)
				}
				e, err := engine.New(prog, engine.CompileOptions{Variant: bench.name}, engine.SessionOptions{})
				if err != nil {
					b.Fatal(err)
				}
				wmes, err := ops5.ParseWMEs(workloads.BlocksWorldWMEs(6))
				if err != nil {
					b.Fatal(err)
				}
				e.InsertWMEs(wmes...)
				if _, err := e.Run(200); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The join family: workloads.CrossChain(k) with 16 wmes per class on
// the sequential matcher, under plain hashed Rete, copy-and-constraint
// and the worst-case-bounded variant. Plain Rete's beta memories grow
// as N^(k/2) while bounded stores no tokens at all, so the gap widens
// as k doubles; TestCrossChainStorage pins the storage, the benchmark
// times it.
var crossChainVariants = []struct{ label, variant string }{
	{"plain", "shared"}, {"candc", "candc"}, {"bounded", "bounded"},
}

func crossChain(tb testing.TB, k int) ([]*ops5.Production, []rete.Change) {
	tb.Helper()
	prog, err := ops5.ParseProgram(workloads.CrossChain(k))
	if err != nil {
		tb.Fatal(err)
	}
	wmes, err := ops5.ParseWMEs(workloads.CrossChainWMEs(k, 16))
	if err != nil {
		tb.Fatal(err)
	}
	changes := make([]rete.Change, len(wmes))
	for i, w := range wmes {
		w.ID, w.TimeTag = i+1, i+1
		changes[i] = rete.Change{Tag: rete.Add, WME: w}
	}
	return prog.Productions, changes
}

// BenchmarkCrossChain replays the full burst into a Reset matcher per
// op, for k in {2, 4, 8} under each variant.
func BenchmarkCrossChain(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		prods, changes := crossChain(b, k)
		for _, v := range crossChainVariants {
			b.Run(fmt.Sprintf("%s-k%d", v.label, k), func(b *testing.B) {
				net, err := rete.CompileVariant(prods, v.variant)
				if err != nil {
					b.Fatal(err)
				}
				m := rete.NewMatcher(net, rete.MatcherOptions{})
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.Reset()
					m.Apply(changes)
				}
			})
		}
	}
}

// TestCrossChainStorage pins the half of the join family that needs no
// clock: every variant emits the same conflict-set deltas, plain Rete
// holds the N^(k/2) cross-product tokens in its left memories, and
// bounded holds none, only the k*16 wmes in its right memories.
func TestCrossChainStorage(t *testing.T) {
	for _, c := range []struct{ k, deltas, plainLeft int }{
		{2, 15, 16}, {4, 13, 286}, {8, 9, 73690},
	} {
		prods, changes := crossChain(t, c.k)
		for _, v := range crossChainVariants {
			net, err := rete.CompileVariant(prods, v.variant)
			if err != nil {
				t.Fatal(err)
			}
			m := rete.NewMatcher(net, rete.MatcherOptions{})
			if got := len(m.Apply(changes)); got != c.deltas {
				t.Errorf("%s k=%d: %d conflict-set deltas, want %d", v.label, c.k, got, c.deltas)
			}
			left, right := m.Memories()
			switch v.label {
			case "plain":
				if left.Len() != c.plainLeft {
					t.Errorf("plain k=%d: %d left tokens, want %d", c.k, left.Len(), c.plainLeft)
				}
			case "bounded":
				if left.Len() != 0 || right.Len() != c.k*16 {
					t.Errorf("bounded k=%d: %d left tokens, %d right wmes, want 0, %d",
						c.k, left.Len(), right.Len(), c.k*16)
				}
			}
		}
	}
}

// BenchmarkRecorderOverhead compares a simulation run with no
// observability attached (the nil-recorder fast path — every obs
// instrument is a no-op on a nil receiver) against one recording into
// a flight recorder, built once as core.NewFlightRecorder sizes it,
// and a fresh metrics registry; "registry" attaches the registry alone.
// The "off" case is the guardrail: instrumenting the simulator hot
// paths must stay essentially free (within ~2%) when nothing is
// attached.
func BenchmarkRecorderOverhead(b *testing.B) {
	tr := workloads.Rubik()
	base := core.Config{
		MatchProcs: 16,
		Costs:      core.DefaultCosts(),
		Overhead:   core.OverheadRuns()[1],
		Latency:    core.NectarLatency(),
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Simulate(tr, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("registry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Metrics = obs.NewRegistry()
			if _, err := core.Simulate(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recording", func(b *testing.B) {
		rec, err := core.NewFlightRecorder(tr, base)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Recorder = rec
			cfg.Metrics = obs.NewRegistry()
			if _, err := core.Simulate(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Infrastructure benchmarks: the codecs and the analyzer.

// BenchmarkTraceCodec measures trace serialization round-trips on the
// largest section.
func BenchmarkTraceCodec(b *testing.B) {
	tr := workloads.Tourney()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.Encode(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes")
}

// BenchmarkAnalysis measures the Section 5.2 analyzer over the heavy
// Tourney trace.
func BenchmarkAnalysis(b *testing.B) {
	tr := workloads.Tourney()
	for i := 0; i < b.N; i++ {
		if r := analysis.Analyze(tr); len(r.HotNodes) == 0 {
			b.Fatal("analysis lost the hot node")
		}
	}
}

// BenchmarkSweepParallelVsSequential compares the concurrent sweep
// engine against an in-order reference run of the same grid (all three
// sections x 5 processor counts under run2 overheads, with baselines).
// A fresh engine per iteration keeps the memoization cache from
// leaking across iterations, so "parallel" measures one cold sweep:
// worker-pool concurrency plus the shared-baseline cache. On a
// multi-core host the parallel case is expected to run >=2x faster;
// on a single core the cache alone still wins.
func BenchmarkSweepParallelVsSequential(b *testing.B) {
	spec := sweep.Spec{
		Name: "bench",
		Traces: []*trace.Trace{
			workloads.Rubik(), workloads.Tourney(), workloads.Weaver(),
		},
		Procs:     []int{2, 4, 8, 16, 32},
		Overheads: core.OverheadRuns()[1:2],
		Baseline:  true,
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sweep.New().RunSequential(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sweep.New().Run(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkContinuum regenerates the Section 6 continuum-of-mappings
// comparison at 32 processors.
func BenchmarkContinuum(b *testing.B) {
	tr := workloads.Rubik()
	base := core.Config{
		MatchProcs: 32,
		Costs:      core.DefaultCosts(),
		Overhead:   core.OverheadRuns()[1],
		Latency:    core.NectarLatency(),
	}
	b.Run("replicated", func(b *testing.B) {
		cfg := base
		cfg.Replicated = true
		benchSpeedup(b, tr, cfg)
	})
	b.Run("distributed", func(b *testing.B) { benchSpeedup(b, tr, base) })
	b.Run("master-copy", func(b *testing.B) {
		cfg := base
		cfg.Partition = make(sched.Partition, tr.NBuckets)
		benchSpeedup(b, tr, cfg)
	})
}
