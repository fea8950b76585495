package parallel

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// TestChaosParity runs the random add/delete parity check with the
// chaos layer enabled: reordered drains, split turns, deferred
// flushes, and jittered termination detection must leave the
// conflict-set trajectory identical to the sequential matcher's, every
// cycle's deltas alternating per instantiation (applyDeltas). The
// heavyweight many-seed sweep lives in internal/difftest; this is the
// in-package smoke that chaos itself upholds the invariant.
func TestChaosParity(t *testing.T) {
	srcs := []string{
		`(p join (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`,
		`(p neg (a ^x <v>) -(d ^x <v>) --> (halt))`,
		`(p solo (e ^k 1) --> (halt))`,
	}
	for _, routed := range []bool{false, true} {
		for _, det := range []Detector{CountingDetector, FourCounterDetector} {
			for _, chaosSeed := range []int64{1, 99} {
				t.Run(fmt.Sprintf("routed=%v-det%d-seed%d", routed, det, chaosSeed), func(t *testing.T) {
					net, _ := compileProds(t, srcs...)
					seqNet, _ := compileProds(t, srcs...)
					seq := rete.NewMatcher(seqNet, rete.MatcherOptions{NBuckets: 64})
					rt, err := New(net, Options{
						Workers: 4, NBuckets: 64, Detector: det,
						RouteRoots: routed, ChaosSeed: chaosSeed,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer rt.Close()

					seqCS, parCS := map[string]bool{}, map[string]bool{}
					id := 1
					var live []*ops5.WME
					rng := rand.New(rand.NewSource(chaosSeed * 31))
					for i := 0; i < 50; i++ {
						// Batch a few changes per cycle so same-cycle
						// add+delete transients occur.
						var ch []rete.Change
						for len(ch) < 1+rng.Intn(4) {
							if len(live) > 0 && rng.Intn(3) == 0 {
								j := rng.Intn(len(live))
								ch = append(ch, rete.Change{Tag: rete.Delete, WME: live[j]})
								live = append(live[:j], live[j+1:]...)
							} else {
								class := []string{"a", "b", "c", "d", "e"}[rng.Intn(5)]
								w := ops5.NewWME(class, "x", rng.Intn(3))
								if class == "e" {
									w = ops5.NewWME(class, "k", rng.Intn(3))
								}
								w.ID, w.TimeTag = id, id
								id++
								ch = append(ch, rete.Change{Tag: rete.Add, WME: w})
								live = append(live, w)
							}
						}
						applyDeltas(t, seqCS, seq.Apply(ch))
						applyDeltas(t, parCS, rt.Apply(ch))
						if !setsEqual(seqCS, parCS) {
							t.Fatalf("divergence at cycle %d:\nseq: %v\npar: %v", i, seqCS, parCS)
						}
					}
				})
			}
		}
	}
}

// TestChaosCrossProductBurst aims the Tourney pathology at the chaos
// layer: thousands of same-destination activations across split turns
// and deferred flushes must still converge to the exact cross product.
func TestChaosCrossProductBurst(t *testing.T) {
	net, _ := compileProds(t, `(p cross (a ^x <u>) (b ^y <w>) --> (halt))`)
	rt, err := New(net, Options{Workers: 4, NBuckets: 64, ChaosSeed: 7})
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
	applyDeltas(t, cs, rt.Apply(changes))
	if len(cs) != 1600 {
		t.Fatalf("cross product = %d, want 1600", len(cs))
	}
}

// TestChaosRepartition exercises the migration barrier under chaotic
// scheduling: carried-over messages stay registered with the work
// counter, so Repartition's quiescence wait must still be a barrier.
func TestChaosRepartition(t *testing.T) {
	net, _ := compileProds(t, `(p j (a ^x <v>) (b ^x <v>) --> (halt))`)
	rt, err := New(net, Options{Workers: 4, NBuckets: 16, ChaosSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	cs := map[string]bool{}
	id := 1
	for round := 0; round < 4; round++ {
		var ch []rete.Change
		for i := 0; i < 10; i++ {
			class := "a"
			if i%2 == 0 {
				class = "b"
			}
			w := ops5.NewWME(class, "x", i/2)
			w.ID, w.TimeTag = id, id
			id++
			ch = append(ch, rete.Change{Tag: rete.Add, WME: w})
		}
		applyDeltas(t, cs, rt.Apply(ch))
		newPart := make([]int, 16)
		for b := range newPart {
			newPart[b] = (b + round) % 4
		}
		if _, err := rt.Repartition(newPart); err != nil {
			t.Fatal(err)
		}
	}
	// Each round adds 5 a's and 5 b's over x ∈ {0..4}; after r rounds
	// each x value pairs r a's with r b's: 5·r² instantiations.
	if want := 5 * 4 * 4; len(cs) != want {
		t.Fatalf("conflict set = %d, want %d", len(cs), want)
	}
}
