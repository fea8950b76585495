package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// compileProdsT compiles production sources into a network for the
// migration tests (the named workloads don't exercise enough distinct
// buckets per cycle to arm the detector deterministically).
func compileProdsT(t *testing.T, srcs ...string) *rete.Network {
	t.Helper()
	var prods []*ops5.Production
	for _, src := range srcs {
		p, err := ops5.ParseProduction(src)
		if err != nil {
			t.Fatal(err)
		}
		prods = append(prods, p)
	}
	net, err := rete.Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// foldInsts folds one match phase's conflict-set deltas into a set, in
// order, and holds them to the condition the engine's conflict set
// settles a phase by (parallel.Driver.Cycle): per instantiation the
// tags alternate, and the first says whether the set had it before the
// phase. Nothing here fires, so the set is what the matcher has: an Add
// of a member or a Delete of what is not one breaks the condition.
func foldInsts(t testing.TB, cs map[string]bool, deltas []rete.InstChange) {
	t.Helper()
	for _, ic := range deltas {
		k := ic.Key()
		if cs[k] == (ic.Tag == rete.Add) {
			t.Fatalf("%s %s: the deltas do not alternate from the set's (has it: %v)", ic.Tag, k, cs[k])
		}
		if ic.Tag == rete.Add {
			cs[k] = true
		} else {
			delete(cs, k)
		}
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// migrationProds is the program the forced-migration tests churn: a
// three-way join and a negation, so resident left tokens, right wmes and
// negative-node counts all cross between workers.
var migrationProds = []string{
	`(p join (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`,
	`(p neg (a ^x <v>) -(d ^x <v>) --> (halt))`,
}

// churnScript is a fixed pseudo-random run of single-wme cycles over
// migrationProds' classes: two adds for every delete of a live wme.
func churnScript(steps int) [][]rete.Change { return churnScriptLive(steps, steps) }

// churnScriptLive is churnScript that deletes a live wme whenever
// maxLive are live. The k-th wme made has id and time tag k+1.
func churnScriptLive(steps, maxLive int) [][]rete.Change {
	var script [][]rete.Change
	made := 0
	var live []*ops5.WME
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < steps; i++ {
		if len(live) >= maxLive || len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			script = append(script, []rete.Change{{Tag: rete.Delete, WME: live[j]}})
			live = append(live[:j], live[j+1:]...)
			continue
		}
		class := []string{"a", "b", "c", "d"}[rng.Intn(4)]
		w := ops5.NewWME(class, "x", rng.Intn(3))
		w.ID, w.TimeTag = made+1, made+1
		made++
		script = append(script, []rete.Change{{Tag: rete.Add, WME: w}})
		live = append(live, w)
	}
	return script
}

// TestCrossCarrierMigrationAccounting runs one forced-rotation schedule
// on both carriers of the cycle driver — in-process mailboxes and the
// star of worker connections. What a bucket holds at a quiescent cycle
// boundary does not depend on how messages were scheduled, so beyond
// each carrier matching the sequential matcher cycle by cycle, both
// must report the same migrations, buckets moved and entries moved.
func TestCrossCarrierMigrationAccounting(t *testing.T) {
	const (
		workers  = 3
		nbuckets = 64
	)
	rotate := func(cycle int) sched.Partition {
		p := make(sched.Partition, nbuckets)
		for b := range p {
			p[b] = (b + cycle) % workers
		}
		return p
	}
	carriers := []struct {
		name string
		open func(t *testing.T, net *rete.Network) (*parallel.Driver, func() error)
	}{
		{"inproc", func(t *testing.T, net *rete.Network) (*parallel.Driver, func() error) {
			rt, err := parallel.New(net, parallel.Options{Workers: workers, NBuckets: nbuckets, ForceMigrate: rotate})
			if err != nil {
				t.Fatal(err)
			}
			return rt.Driver, func() error { rt.Close(); return nil }
		}},
		{"star", func(t *testing.T, net *rete.Network) (*parallel.Driver, func() error) {
			ctl, err := Listen(net, "127.0.0.1:0", ControlOptions{Workers: workers, NBuckets: nbuckets, ForceMigrate: rotate})
			if err != nil {
				t.Fatal(err)
			}
			werrs := startWorkers(t, ctl.Addr(), workers)
			if err := ctl.WaitWorkers(); err != nil {
				ctl.Close()
				t.Fatal(err)
			}
			return ctl.Driver, func() error {
				errs := []error{ctl.Close()}
				for i := 0; i < workers; i++ {
					errs = append(errs, <-werrs)
				}
				return errors.Join(errs...)
			}
		}},
		{"inproc-routed", func(t *testing.T, net *rete.Network) (*parallel.Driver, func() error) {
			rt, err := parallel.New(net, parallel.Options{Workers: workers, NBuckets: nbuckets, ForceMigrate: rotate, RouteRoots: true})
			if err != nil {
				t.Fatal(err)
			}
			return rt.Driver, func() error { rt.Close(); return nil }
		}},
		{"star-routed", func(t *testing.T, net *rete.Network) (*parallel.Driver, func() error) {
			ctl, err := Listen(net, "127.0.0.1:0", ControlOptions{Workers: workers, NBuckets: nbuckets, ForceMigrate: rotate, RouteRoots: true})
			if err != nil {
				t.Fatal(err)
			}
			werrs := startWorkers(t, ctl.Addr(), workers)
			if err := ctl.WaitWorkers(); err != nil {
				ctl.Close()
				t.Fatal(err)
			}
			return ctl.Driver, func() error {
				errs := []error{ctl.Close()}
				for i := 0; i < workers; i++ {
					errs = append(errs, <-werrs)
				}
				return errors.Join(errs...)
			}
		}},
	}
	script := churnScript(30)
	type accounting struct{ migrations, bucketsMoved, entriesMoved int64 }
	got := map[string]accounting{}
	for _, c := range carriers {
		t.Run(c.name, func(t *testing.T) {
			seq := rete.NewMatcher(compileProdsT(t, migrationProds...), rete.MatcherOptions{NBuckets: nbuckets})
			drv, closeCarrier := c.open(t, compileProdsT(t, migrationProds...))
			seqCS, parCS := map[string]bool{}, map[string]bool{}
			for i, ch := range script {
				foldInsts(t, seqCS, seq.Apply(ch))
				insts, err := drv.Cycle(ch)
				if err != nil {
					t.Fatal(err)
				}
				foldInsts(t, parCS, insts)
				if !sameSet(seqCS, parCS) {
					t.Fatalf("divergence at step %d:\nseq: %v\ngot: %v", i, seqCS, parCS)
				}
			}
			var a accounting
			a.migrations, a.bucketsMoved, a.entriesMoved = drv.RebalanceStats()
			got[c.name] = a
			if err := closeCarrier(); err != nil {
				t.Fatal(err)
			}
		})
	}
	want := got["inproc"]
	if want.migrations != int64(len(script)) || want.bucketsMoved == 0 || want.entriesMoved == 0 {
		t.Fatalf("in-process accounting %+v: want %d migrations moving buckets and entries", want, len(script))
	}
	for name, a := range got {
		if a != want {
			t.Errorf("%s accounted %+v, in-process %+v", name, a, want)
		}
	}
}

// TestMigrationOrdersReachEveryWorker: a migration order carries the
// new partition to every worker, whether or not it loses a bucket, and
// the two carriers deliver it alike. The schedule swaps buckets between
// workers 0 and 1 at every cycle boundary, so worker 2 never loses one;
// in each migration interval on the control track, every worker must
// still receive exactly one message from the control.
func TestMigrationOrdersReachEveryWorker(t *testing.T) {
	const (
		workers  = 3
		nbuckets = 64
	)
	base := sched.RoundRobin(nbuckets, workers)
	swap := func(cycle int) sched.Partition {
		p := append(sched.Partition(nil), base...)
		for b, owner := range p {
			if cycle%2 == 1 && owner < 2 {
				p[b] = 1 - owner
			}
		}
		return p
	}
	script := churnScript(8)
	got := map[string][]int{}
	for _, name := range []string{"inproc", "star"} {
		net := compileProdsT(t, migrationProds...)
		opts := parallel.Options{
			Workers: workers, NBuckets: nbuckets, ForceMigrate: swap,
			Causal: parallel.NewFlightRecorder(workers, 1<<12, 0, nbuckets),
		}
		if name == "star" {
			opts.Transport = NewLoopback(net)
		}
		rt, err := parallel.New(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range script {
			if _, err := rt.Cycle(ch); err != nil {
				t.Fatal(err)
			}
		}
		dump := rt.FlightDump()
		rt.Close()
		var spans [][2]int64
		for _, ev := range dump.Tracks[workers].Events {
			switch ev.Kind {
			case obs.EvMigrateBegin:
				spans = append(spans, [2]int64{ev.TS, -1})
			case obs.EvMigrateEnd:
				spans[len(spans)-1][1] = ev.TS
			}
		}
		if len(spans) != len(script) {
			t.Fatalf("%s: %d migrations on the control track, want %d", name, len(spans), len(script))
		}
		orders := make([]int, workers)
		for w := range orders {
			for _, ev := range dump.Tracks[w].Events {
				if ev.Kind != obs.EvRecv || ev.Src != workers {
					continue
				}
				for _, sp := range spans {
					if sp[0] <= ev.TS && ev.TS <= sp[1] {
						orders[w] += int(ev.Count)
					}
				}
			}
			if orders[w] != len(spans) {
				t.Errorf("%s: worker %d handled %d orders in %d migrations", name, w, orders[w], len(spans))
			}
		}
		got[name] = orders
	}
	if !slices.Equal(got["inproc"], got["star"]) {
		t.Errorf("orders per worker: in-process %v, star %v", got["inproc"], got["star"])
	}
}

// TestControlForcedMigrationParity is the cross-process form of the
// migration metamorphic property: buckets migrate between worker
// processes over real TCP connections mid-run — extraction, wire
// serialization, relay through the control process, and injection at
// the new owner — and the conflict-set trajectory must stay identical
// to the sequential matcher's, the deltas of every cycle alternating
// per instantiation (foldInsts). The forced schedule rotates
// the whole partition at every cycle boundary, so every resident token
// crosses the wire between every pair of cycles.
func TestControlForcedMigrationParity(t *testing.T) {
	for _, routed := range []bool{false, true} {
		t.Run(fmt.Sprintf("routed=%v", routed), func(t *testing.T) {
			for _, workers := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
					forcedMigrationParity(t, workers, routed)
				})
			}
		})
	}
}

// forcedMigrationParity is one row of TestControlForcedMigrationParity.
// A single worker owns every bucket whatever the rotation, so its row
// holds the intake and parity only.
func forcedMigrationParity(t *testing.T, workers int, routed bool) {
	const nbuckets = 64
	net := compileProdsT(t, migrationProds...)
	seq := rete.NewMatcher(compileProdsT(t, migrationProds...), rete.MatcherOptions{NBuckets: nbuckets})
	ctl, err := Listen(net, "127.0.0.1:0", ControlOptions{
		Workers:    workers,
		NBuckets:   nbuckets,
		RouteRoots: routed,
		ForceMigrate: func(cycle int) sched.Partition {
			p := make(sched.Partition, nbuckets)
			for b := range p {
				p[b] = (b + cycle) % workers
			}
			return p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	werrs := startWorkers(t, ctl.Addr(), workers)
	if err := ctl.WaitWorkers(); err != nil {
		t.Fatal(err)
	}

	seqCS, wireCS := map[string]bool{}, map[string]bool{}
	cycles := 0
	for i, ch := range churnScript(30) {
		foldInsts(t, seqCS, seq.Apply(ch))
		got, err := ctl.Cycle(ch)
		if err != nil {
			t.Fatal(err)
		}
		foldInsts(t, wireCS, got)
		cycles++
		if !sameSet(seqCS, wireCS) {
			t.Fatalf("divergence at step %d:\nseq:  %v\nwire: %v", i, seqCS, wireCS)
		}
	}
	migs, moved, entries := ctl.RebalanceStats()
	if workers > 1 {
		if int(migs) != cycles {
			t.Errorf("forced schedule migrated %d times over %d cycles", migs, cycles)
		}
		if moved == 0 {
			t.Error("forced full rotations moved no buckets")
		}
		if entries == 0 {
			t.Error("no entries crossed the wire despite resident state")
		}
	}

	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		select {
		case err := <-werrs:
			if err != nil {
				t.Fatalf("worker exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit")
		}
	}
}

// TestControlAdaptiveParity runs the online detector across worker
// processes: a pathologically bad initial assignment (every bucket on
// worker 0), per-bucket loads reported in turn frames, and the control
// plane's balancer migrating buckets over the wire — with the conflict
// sets identical to the sequential matcher throughout.
func TestControlAdaptiveParity(t *testing.T) {
	const (
		workers  = 3
		nbuckets = 64
	)
	src := `(p j (a ^x <v>) (b ^x <v>) --> (halt))`
	net := compileProdsT(t, src)
	seq := rete.NewMatcher(compileProdsT(t, src), rete.MatcherOptions{NBuckets: nbuckets})
	ctl, err := Listen(net, "127.0.0.1:0", ControlOptions{
		Workers:   workers,
		NBuckets:  nbuckets,
		Partition: make(sched.Partition, nbuckets), // everything on worker 0
		Rebalance: sched.Rebalance{Threshold: 1.01, MinInterval: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	werrs := startWorkers(t, ctl.Addr(), workers)
	if err := ctl.WaitWorkers(); err != nil {
		t.Fatal(err)
	}

	seqCS, wireCS := map[string]bool{}, map[string]bool{}
	id := 1
	for cycle := 0; cycle < 8; cycle++ {
		var ch []rete.Change
		for x := 0; x < 8; x++ {
			for _, class := range []string{"a", "b"} {
				w := ops5.NewWME(class, "x", cycle*8+x)
				w.ID, w.TimeTag = id, id
				id++
				ch = append(ch, rete.Change{Tag: rete.Add, WME: w})
			}
		}
		foldInsts(t, seqCS, seq.Apply(ch))
		got, err := ctl.Cycle(ch)
		if err != nil {
			t.Fatal(err)
		}
		foldInsts(t, wireCS, got)
		if !sameSet(seqCS, wireCS) {
			t.Fatalf("divergence at cycle %d:\nseq:  %v\nwire: %v", cycle, seqCS, wireCS)
		}
	}
	migs, moved, _ := ctl.RebalanceStats()
	if migs == 0 {
		t.Fatal("detector never armed on an all-on-one-worker assignment")
	}
	if moved == 0 {
		t.Fatal("migration moved no buckets")
	}
	owners := map[int]bool{}
	for _, o := range ctl.Partition() {
		owners[o] = true
	}
	if len(owners) < 2 {
		t.Fatalf("partition still on a single owner after %d migrations", migs)
	}

	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		select {
		case err := <-werrs:
			if err != nil {
				t.Fatalf("worker exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit")
		}
	}
}
