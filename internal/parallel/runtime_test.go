package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

func compileProds(t *testing.T, srcs ...string) (*rete.Network, []*ops5.Production) {
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
	return net, prods
}

// applyDeltas folds conflict-set deltas into a set.
func applyDeltas(cs map[string]bool, deltas []rete.InstChange) {
	for _, ic := range deltas {
		if ic.Tag == rete.Add {
			cs[ic.Key()] = true
		} else {
			delete(cs, ic.Key())
		}
	}
}

func setsEqual(a, b map[string]bool) bool {
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

func TestParallelMatchesSequentialBlocksLike(t *testing.T) {
	srcs := []string{
		`(p join (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`,
		`(p neg (a ^x <v>) -(d ^x <v>) --> (halt))`,
		`(p solo (e ^k 1) --> (halt))`,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, det := range []Detector{CountingDetector, FourCounterDetector} {
			t.Run(fmt.Sprintf("w%d-det%d", workers, det), func(t *testing.T) {
				net, _ := compileProds(t, srcs...)
				seqNet, _ := compileProds(t, srcs...)
				seq := rete.NewMatcher(seqNet, rete.MatcherOptions{NBuckets: 64})
				rt, err := New(net, Options{Workers: workers, NBuckets: 64, Detector: det})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()

				seqCS, parCS := map[string]bool{}, map[string]bool{}
				id := 1
				step := func(tag rete.Tag, w *ops5.WME) {
					ch := []rete.Change{{Tag: tag, WME: w}}
					applyDeltas(seqCS, seq.Apply(ch))
					applyDeltas(parCS, rt.Apply(ch))
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
				rng := rand.New(rand.NewSource(17))
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
			})
		}
	}
}

// TestRoutedMatchesSequential is the random add/delete parity check of
// TestParallelMatchesSequentialBlocksLike with RouteRoots (Fig 3-2):
// constant tests run once on the control goroutine and root
// activations are hash-routed to their owners. The netted conflict-set
// trajectory must be identical to the sequential matcher's.
func TestRoutedMatchesSequential(t *testing.T) {
	srcs := []string{
		`(p join (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`,
		`(p neg (a ^x <v>) -(d ^x <v>) --> (halt))`,
		`(p solo (e ^k 1) --> (halt))`,
	}
	for _, workers := range []int{1, 2, 4} {
		for _, det := range []Detector{CountingDetector, FourCounterDetector} {
			t.Run(fmt.Sprintf("w%d-det%d", workers, det), func(t *testing.T) {
				net, _ := compileProds(t, srcs...)
				seqNet, _ := compileProds(t, srcs...)
				seq := rete.NewMatcher(seqNet, rete.MatcherOptions{NBuckets: 64})
				rt, err := New(net, Options{Workers: workers, NBuckets: 64, Detector: det, RouteRoots: true})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()

				seqCS, parCS := map[string]bool{}, map[string]bool{}
				id := 1
				step := func(tag rete.Tag, w *ops5.WME) {
					ch := []rete.Change{{Tag: tag, WME: w}}
					applyDeltas(seqCS, seq.Apply(ch))
					applyDeltas(parCS, rt.Apply(ch))
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
				rng := rand.New(rand.NewSource(41))
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
			})
		}
	}
}

// TestRoutedCrossProductBurst runs the Tourney pathology in routed
// mode: every root activation funnels through the control goroutine's
// constant tests and the cross-product tokens still converge.
func TestRoutedCrossProductBurst(t *testing.T) {
	net, _ := compileProds(t, `(p cross (a ^x <u>) (b ^y <w>) --> (halt))`)
	rt, err := New(net, Options{Workers: 4, NBuckets: 64, RouteRoots: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	cs := map[string]bool{}
	id := 1
	var changes []rete.Change
	for i := 0; i < 40; i++ {
		w := ops5.NewWME("a", "x", i)
		w.ID, w.TimeTag = id, id
		id++
		changes = append(changes, rete.Change{Tag: rete.Add, WME: w})
		w2 := ops5.NewWME("b", "y", i)
		w2.ID, w2.TimeTag = id, id
		id++
		changes = append(changes, rete.Change{Tag: rete.Add, WME: w2})
	}
	applyDeltas(cs, rt.Apply(changes))
	if len(cs) != 1600 {
		t.Fatalf("cross product = %d, want 1600", len(cs))
	}
}

func TestParallelCrossProductBurst(t *testing.T) {
	// The Tourney pathology: a join with no equality tests sends every
	// token to one bucket owner. Exercises the unbounded mailbox.
	net, _ := compileProds(t, `(p cross (a ^x <u>) (b ^y <w>) --> (halt))`)
	rt, err := New(net, Options{Workers: 4, NBuckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	cs := map[string]bool{}
	id := 1
	var changes []rete.Change
	for i := 0; i < 40; i++ {
		w := ops5.NewWME("a", "x", i)
		w.ID, w.TimeTag = id, id
		id++
		changes = append(changes, rete.Change{Tag: rete.Add, WME: w})
		w2 := ops5.NewWME("b", "y", i)
		w2.ID, w2.TimeTag = id, id
		id++
		changes = append(changes, rete.Change{Tag: rete.Add, WME: w2})
	}
	applyDeltas(cs, rt.Apply(changes))
	if len(cs) != 1600 {
		t.Fatalf("cross product = %d, want 1600", len(cs))
	}
	st := rt.Stats()
	var processed int64
	for _, p := range st.Processed {
		processed += p
	}
	if processed == 0 {
		t.Error("no activations recorded")
	}
}

func TestParallelDeterministicResults(t *testing.T) {
	// The netted, sorted delta list must be identical across runs even
	// though scheduling differs.
	srcs := []string{`(p j (a ^x <v>) (b ^x <v>) --> (halt))`}
	run := func() []string {
		net, _ := compileProds(t, srcs...)
		rt, err := New(net, Options{Workers: 4, NBuckets: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		var changes []rete.Change
		for i := 1; i <= 30; i++ {
			w := ops5.NewWME("a", "x", i%5)
			if i%2 == 0 {
				w = ops5.NewWME("b", "x", i%5)
			}
			w.ID, w.TimeTag = i, i
			changes = append(changes, rete.Change{Tag: rete.Add, WME: w})
		}
		var keys []string
		for _, ic := range rt.Apply(changes) {
			keys = append(keys, fmt.Sprintf("%s/%s", ic.Key(), ic.Tag))
		}
		return keys
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestParallelWorkDistribution(t *testing.T) {
	// With well-hashed tokens, several workers should see work.
	net, _ := compileProds(t, `(p j (a ^x <v>) (b ^x <v>) --> (halt))`)
	rt, err := New(net, Options{Workers: 4, NBuckets: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var changes []rete.Change
	for i := 1; i <= 200; i++ {
		class := "a"
		if i%2 == 0 {
			class = "b"
		}
		w := ops5.NewWME(class, "x", i/2)
		w.ID, w.TimeTag = i, i
		changes = append(changes, rete.Change{Tag: rete.Add, WME: w})
	}
	rt.Apply(changes)
	busy := 0
	for _, p := range rt.Stats().Processed {
		if p > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Errorf("only %d of 4 workers processed activations", busy)
	}
}

func TestParallelOptionsValidation(t *testing.T) {
	net, _ := compileProds(t, `(p j (a ^x 1) --> (halt))`)
	if _, err := New(net, Options{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := New(net, Options{Workers: 2, NBuckets: 16, Partition: make([]int, 4)}); err == nil {
		t.Error("short partition accepted")
	}
	// Chaos perturbs goroutine mailboxes; a Transport has none, so the
	// pair is refused before the transport opens anything.
	tr := &openCounter{}
	_, err := New(net, Options{Workers: 2, ChaosSeed: 1, Transport: tr})
	if err == nil || !strings.Contains(err.Error(), "ChaosSeed") || !strings.Contains(err.Error(), "Transport") || tr.opened != 0 {
		t.Errorf("ChaosSeed with a Transport: err = %v after %d opens, want an error naming both and none", err, tr.opened)
	}
}

// openCounter is a Transport that counts its opens and opens nothing.
type openCounter struct{ opened int }

func (o *openCounter) Open(Options) (*Driver, func(), error) {
	o.opened++
	return nil, nil, errors.New("openCounter opens nothing")
}

func TestParallelCloseIdempotent(t *testing.T) {
	net, _ := compileProds(t, `(p j (a ^x 1) --> (halt))`)
	rt, err := New(net, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close()
}

// TestAddBeforeDeleteSameCycle pins the per-sender FIFO guarantee at
// the runtime level: a modify-style transient — the same wme added and
// deleted within one cycle — must leave no residue in the token
// memories. If a worker reordered the two same-bucket activations
// (processing the delete before the add), a stale token would survive
// and produce a spurious match in a later cycle.
func TestAddBeforeDeleteSameCycle(t *testing.T) {
	for _, routed := range []bool{false, true} {
		t.Run(fmt.Sprintf("routed=%v", routed), func(t *testing.T) {
			net, _ := compileProds(t, `(p j (a ^x <v>) (b ^x <v>) --> (halt))`)
			rt, err := New(net, Options{Workers: 4, NBuckets: 64, RouteRoots: routed})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()

			transient := ops5.NewWME("a", "x", 1)
			transient.ID, transient.TimeTag = 1, 1
			if out := rt.Apply([]rete.Change{
				{Tag: rete.Add, WME: transient},
				{Tag: rete.Delete, WME: transient},
			}); len(out) != 0 {
				t.Fatalf("transient add+delete netted to %v", out)
			}

			// A partner in a later cycle must not match the dead token.
			b := ops5.NewWME("b", "x", 1)
			b.ID, b.TimeTag = 2, 2
			if out := rt.Apply([]rete.Change{{Tag: rete.Add, WME: b}}); len(out) != 0 {
				t.Fatalf("stale token matched: %v", out)
			}

			// And a live wme must still match, proving the path works.
			a := ops5.NewWME("a", "x", 1)
			a.ID, a.TimeTag = 3, 3
			out := rt.Apply([]rete.Change{{Tag: rete.Add, WME: a}})
			if len(out) != 1 || out[0].Tag != rete.Add {
				t.Fatalf("live add netted to %v, want one add", out)
			}
		})
	}
}

// TestSteadyStateAllocs pins the batched message plane's
// O(1)-allocations claim: a steady-state cycle whose activations flow
// through it (join work, cross-worker token sends, no conflict-set
// deltas) must not allocate per message or per token. The arena carves
// tokens in chunks and the mailbox/coalescing buffers are reused, so
// the amortized allocation count per cycle stays a small constant. The
// budget is 0 so that these cycles reach the plane at all;
// TestInPlaceCycleAllocs pins the in-place head.
func TestSteadyStateAllocs(t *testing.T) {
	net, _ := compileProds(t, `(p j (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`)
	rt, err := New(net, Options{Workers: 4, NBuckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.budget = 0

	// Resident 'a' wmes; the measured cycles add and delete matching
	// 'b' wmes, which join against them but never complete (no 'c'), so
	// tokens and messages flow every cycle with zero instantiations.
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
	// 16 token-bearing activations cross the message plane per
	// iteration; per-message or per-token allocation would show up as
	// avg >= 16. The arenas amortize their reference chunks to fractions
	// (these workers never rewind their phase arenas: a few dozen of a
	// chunk's 1,024 references a pair), and AllocsPerRun rounds down: it
	// reads 0.
	if avg > 1 {
		t.Errorf("steady-state cycle pair allocates %.1f times, want <= 1", avg)
	}
}

// TestCrossProductBurstStress hammers the Tourney-shaped pathology —
// repeated cross-product bursts with interleaved deletions across both
// modes — to shake out deadlocks and races in the batched flush /
// drain protocol (run under -race in CI).
func TestCrossProductBurstStress(t *testing.T) {
	rounds, n := 6, 20
	if testing.Short() {
		rounds, n = 2, 8
	}
	for _, routed := range []bool{false, true} {
		t.Run(fmt.Sprintf("routed=%v", routed), func(t *testing.T) {
			net, _ := compileProds(t, `(p cross (a ^x <u>) (b ^y <w>) --> (halt))`)
			rt, err := New(net, Options{Workers: 8, NBuckets: 64, RouteRoots: routed})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()

			cs := map[string]bool{}
			id := 1
			for round := 0; round < rounds; round++ {
				var adds []rete.Change
				var wmes []*ops5.WME
				for i := 0; i < n; i++ {
					w := ops5.NewWME("a", "x", i)
					w.ID, w.TimeTag = id, id
					id++
					adds = append(adds, rete.Change{Tag: rete.Add, WME: w})
					wmes = append(wmes, w)
					w2 := ops5.NewWME("b", "y", i)
					w2.ID, w2.TimeTag = id, id
					id++
					adds = append(adds, rete.Change{Tag: rete.Add, WME: w2})
					wmes = append(wmes, w2)
				}
				applyDeltas(cs, rt.Apply(adds))
				if len(cs) != n*n {
					t.Fatalf("round %d: cross product = %d, want %d", round, len(cs), n*n)
				}
				var dels []rete.Change
				for _, w := range wmes {
					dels = append(dels, rete.Change{Tag: rete.Delete, WME: w})
				}
				applyDeltas(cs, rt.Apply(dels))
				if len(cs) != 0 {
					t.Fatalf("round %d: %d instantiations survive deletion", round, len(cs))
				}
			}
		})
	}
}

func TestNetInsts(t *testing.T) {
	p, err := ops5.ParseProduction(`(p x (a ^v 1) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	w := ops5.NewWME("a", "v", 1)
	w.ID = 7
	// One ProdInfo for the production, as a network has: it is the
	// production's half of an instantiation's identity, hashed by its
	// production node's id.
	info := &rete.ProdInfo{Prod: p, Node: &rete.Node{Kind: rete.KindProduction}}
	mk := func(tag rete.Tag) rete.InstChange {
		return rete.InstChange{Tag: tag, Info: info, WMEs: []*ops5.WME{w}}
	}
	// One netter across all three calls, as the driver reuses its scratch
	// across cycles.
	var n netter
	// +, -, + nets to a single add.
	out := n.net([]rete.InstChange{mk(rete.Add), mk(rete.Delete), mk(rete.Add)})
	if len(out) != 1 || out[0].Tag != rete.Add {
		t.Errorf("net of +-+ = %v", out)
	}
	// +, - cancels.
	if out := n.net([]rete.InstChange{mk(rete.Add), mk(rete.Delete)}); len(out) != 0 {
		t.Errorf("net of +- = %v", out)
	}
	if out := n.net(nil); len(out) != 0 {
		t.Errorf("net of empty = %v", out)
	}
}
