package parallel

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/workloads"
)

// rotatedPartition maps bucket b to worker (b + shift) % workers — the
// deterministic forced-migration schedule: every boundary with a new
// shift moves every bucket to a new owner.
func rotatedPartition(nbuckets, workers, shift int) sched.Partition {
	p := make(sched.Partition, nbuckets)
	for b := range p {
		p[b] = (b + shift) % workers
	}
	return p
}

// TestForcedMigrationParity is the migration metamorphic property: for
// any trajectory of wme changes and any migration schedule, the
// conflict-set trajectory must be identical to the static run's —
// migration moves state, never match semantics. The schedule here is
// the worst case the hook can express: every bucket changes owner at
// every cycle boundary, so every stored token is extracted, shipped,
// and re-injected between every pair of cycles. Runs under -race in CI.
func TestForcedMigrationParity(t *testing.T) {
	srcs := []string{
		`(p join (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`,
		`(p neg (a ^x <v>) -(d ^x <v>) --> (halt))`,
		`(p solo (e ^k 1) --> (halt))`,
	}
	for _, workers := range []int{2, 4} {
		for _, routed := range []bool{false, true} {
			t.Run(fmt.Sprintf("w%d-routed=%v", workers, routed), func(t *testing.T) {
				net, _ := compileProds(t, srcs...)
				seqNet, _ := compileProds(t, srcs...)
				seq := rete.NewMatcher(seqNet, rete.MatcherOptions{NBuckets: 64})
				rt, err := New(net, Options{
					Workers: workers, NBuckets: 64, RouteRoots: routed,
					ForceMigrate: func(cycle int) sched.Partition {
						return rotatedPartition(64, workers, cycle)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()

				seqCS, parCS := map[string]bool{}, map[string]bool{}
				id := 1
				cycles := 0
				step := func(tag rete.Tag, w *ops5.WME) {
					ch := []rete.Change{{Tag: tag, WME: w}}
					applyDeltas(t, seqCS, seq.Apply(ch))
					applyDeltas(t, parCS, rt.Apply(ch))
					cycles++
					if !setsEqual(seqCS, parCS) {
						t.Fatalf("divergence after %v %v:\nseq: %v\npar: %v", tag, w, seqCS, parCS)
					}
				}
				mk := func(class string, x int) *ops5.WME {
					w := ops5.NewWME(class, "x", x)
					if class == "e" {
						w = ops5.NewWME(class, "k", x)
					}
					w.ID, w.TimeTag = id, id
					id++
					return w
				}
				var live []*ops5.WME
				rng := rand.New(rand.NewSource(23))
				for i := 0; i < 60; i++ {
					if len(live) > 0 && rng.Intn(3) == 0 {
						j := rng.Intn(len(live))
						step(rete.Delete, live[j])
						live = append(live[:j], live[j+1:]...)
					} else {
						w := mk([]string{"a", "b", "c", "d", "e"}[rng.Intn(5)], rng.Intn(3))
						step(rete.Add, w)
						live = append(live, w)
					}
				}
				migs, moved, _ := rt.RebalanceStats()
				if int(migs) != cycles {
					t.Errorf("forced schedule migrated %d times over %d cycles", migs, cycles)
				}
				if moved == 0 {
					t.Error("forced full rotations moved no buckets")
				}
			})
		}
	}
}

// TestAdaptiveRebalanceParity runs the online detector end to end on a
// pathologically bad initial assignment (every bucket on worker 0):
// the balancer must migrate load off the hot worker while the
// conflict-set trajectory stays identical to the sequential matcher's.
func TestAdaptiveRebalanceParity(t *testing.T) {
	srcs := []string{`(p j (a ^x <v>) (b ^x <v>) --> (halt))`}
	net, _ := compileProds(t, srcs...)
	seqNet, _ := compileProds(t, srcs...)
	seq := rete.NewMatcher(seqNet, rete.MatcherOptions{NBuckets: 64})
	reg := obs.NewRegistry()
	rt, err := New(net, Options{
		Workers: 4, NBuckets: 64,
		Partition: make(sched.Partition, 64), // everything on worker 0
		Rebalance: sched.Rebalance{Threshold: 1.01, MinInterval: 1},
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Each cycle adds join pairs across eight distinct keys, so eight-
	// plus buckets carry load every cycle — enough structure for an LPT
	// replan to spread them off worker 0.
	seqCS, parCS := map[string]bool{}, map[string]bool{}
	id := 1
	for cycle := 0; cycle < 10; cycle++ {
		var ch []rete.Change
		for x := 0; x < 8; x++ {
			for _, class := range []string{"a", "b"} {
				w := ops5.NewWME(class, "x", x)
				w.ID, w.TimeTag = id, id
				id++
				ch = append(ch, rete.Change{Tag: rete.Add, WME: w})
			}
		}
		applyDeltas(t, seqCS, seq.Apply(ch))
		applyDeltas(t, parCS, rt.Apply(ch))
		if !setsEqual(seqCS, parCS) {
			t.Fatalf("divergence at cycle %d:\nseq: %d insts\npar: %d insts", cycle, len(seqCS), len(parCS))
		}
	}
	migs, moved, _ := rt.RebalanceStats()
	if migs == 0 || moved == 0 {
		t.Fatalf("detector never migrated off the hot worker (migrations=%d moved=%d)", migs, moved)
	}
	// The committed partition must actually spread the buckets.
	owners := map[int]bool{}
	for _, o := range rt.opts.Partition {
		owners[o] = true
	}
	if len(owners) < 2 {
		t.Errorf("after rebalancing all buckets still on %d worker(s)", len(owners))
	}
	// And the migrations were published to the obs series.
	s := reg.Series("parallel/rebalance", "cycle", "imbalance", "buckets_moved", "entries_moved", "messages")
	if rows := s.Rows(); len(rows) != int(migs) {
		t.Errorf("rebalance series has %d rows, want %d", len(rows), migs)
	}
}

// TestRebalanceIdleAllocs extends the steady-state O(1)-allocations
// pin to rebalancing enabled-but-idle: the per-bucket load counters,
// the quiescent fold into the balancer, and the unarmed detector run
// every cycle and must add zero allocations to the match path.
func TestRebalanceIdleAllocs(t *testing.T) {
	net, _ := compileProds(t, `(p j (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`)
	rt, err := New(net, Options{
		Workers: 4, NBuckets: 64,
		// Enabled (counters run, detector evaluated each boundary) but
		// a threshold this workload never reaches, so no plan is built.
		Rebalance: sched.Rebalance{Threshold: 1e6, MinInterval: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	id := 1
	var warm []rete.Change
	for i := 0; i < 8; i++ {
		w := ops5.NewWME("a", "x", i)
		w.ID, w.TimeTag = id, id
		id++
		warm = append(warm, rete.Change{Tag: rete.Add, WME: w})
	}
	rt.Apply(warm)

	bs := make([]*ops5.WME, 8)
	for i := range bs {
		bs[i] = ops5.NewWME("b", "x", i)
		bs[i].ID, bs[i].TimeTag = id, id
		id++
	}
	adds := make([]rete.Change, len(bs))
	dels := make([]rete.Change, len(bs))
	for i, w := range bs {
		adds[i] = rete.Change{Tag: rete.Add, WME: w}
		dels[i] = rete.Change{Tag: rete.Delete, WME: w}
	}
	rt.Apply(adds)
	rt.Apply(dels) // warm the buffers once

	avg := testing.AllocsPerRun(100, func() {
		rt.Apply(adds)
		rt.Apply(dels)
	})
	if avg > 8 {
		t.Errorf("idle-rebalance cycle pair allocates %.1f times, want <= 8 (same pin as TestSteadyStateAllocs)", avg)
	}
	if migs, _, _ := rt.RebalanceStats(); migs != 0 {
		t.Fatalf("idle detector migrated %d times", migs)
	}
}

// BenchmarkMigration prices the migration protocol. repartition is one
// full-rotation migration on a runtime holding resident join state —
// the per-boundary price the adaptive policy pays, isolated from match
// work. The other three each run New, one tourney-like 30x25 burst and
// Close under one schedule: rotate moves every bucket to a new owner
// at the cycle boundary (the worst case §5.2.2 priced), adapt starts
// with every bucket on worker 0 and lets the hair-trigger balancer
// spread it, idle arms a detector that never fires (the bookkeeping
// alone).
func BenchmarkMigration(b *testing.B) {
	b.Run("repartition", func(b *testing.B) {
		p, err := ops5.ParseProduction(`(p j (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`)
		if err != nil {
			b.Fatal(err)
		}
		net, err := rete.Compile([]*ops5.Production{p})
		if err != nil {
			b.Fatal(err)
		}
		rt, err := New(net, Options{Workers: 4, NBuckets: 64})
		if err != nil {
			b.Fatal(err)
		}
		defer rt.Close()
		var changes []rete.Change
		for i := 1; i <= 200; i++ {
			class := []string{"a", "b"}[i%2]
			w := ops5.NewWME(class, "x", i/2)
			w.ID, w.TimeTag = i, i
			changes = append(changes, rete.Change{Tag: rete.Add, WME: w})
		}
		rt.Apply(changes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Repartition(rotatedPartition(64, 4, i%4+1)); err != nil {
				b.Fatal(err)
			}
		}
	})

	prog, err := ops5.ParseProgram(workloads.TourneyLike)
	if err != nil {
		b.Fatal(err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		b.Fatal(err)
	}
	wmes, err := ops5.ParseWMEs(workloads.TourneyLikeWMEs(30, 25))
	if err != nil {
		b.Fatal(err)
	}
	changes := make([]rete.Change, len(wmes))
	for i, w := range wmes {
		w.ID, w.TimeTag = i+1, i+1
		changes[i] = rete.Change{Tag: rete.Add, WME: w}
	}
	for _, s := range []struct {
		name string
		opts Options
	}{
		{"rotate", Options{Workers: 4, ForceMigrate: func(cycle int) sched.Partition {
			return rotatedPartition(rete.DefaultNBuckets, 4, cycle)
		}}},
		{"adapt", Options{
			Workers:   4,
			Partition: make(sched.Partition, rete.DefaultNBuckets),
			Rebalance: sched.Rebalance{Threshold: 1.01, MinInterval: 1},
		}},
		{"idle", Options{Workers: 4, Rebalance: sched.Rebalance{Threshold: 1e9, MinInterval: 1}}},
	} {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt, err := New(net, s.opts)
				if err != nil {
					b.Fatal(err)
				}
				rt.Apply(changes)
				rt.Close()
			}
		})
	}
}
