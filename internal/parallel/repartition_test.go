package parallel

import (
	"math/rand"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

func TestRepartitionPreservesMatchState(t *testing.T) {
	// Build up token memories, migrate every bucket to new owners,
	// then continue matching: results must stay identical to the
	// sequential matcher.
	srcs := []string{
		`(p j3 (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`,
		`(p neg (a ^x <v>) -(d ^x <v>) --> (halt))`,
	}
	net, _ := compileProds(t, srcs...)
	seqNet, _ := compileProds(t, srcs...)
	seq := rete.NewMatcher(seqNet, rete.MatcherOptions{NBuckets: 64})
	rt, err := New(net, Options{Workers: 4, NBuckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	seqCS, parCS := map[string]bool{}, map[string]bool{}
	rng := rand.New(rand.NewSource(5))
	id := 1
	var live []*ops5.WME

	step := func(tag rete.Tag, w *ops5.WME) {
		ch := []rete.Change{{Tag: tag, WME: w}}
		applyDeltas(t, seqCS, seq.Apply(ch))
		applyDeltas(t, parCS, rt.Apply(ch))
		if !setsEqual(seqCS, parCS) {
			t.Fatalf("divergence after %v %v", tag, w)
		}
	}

	for round := 0; round < 6; round++ {
		for i := 0; i < 10; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(live))
				step(rete.Delete, live[j])
				live = append(live[:j], live[j+1:]...)
				continue
			}
			w := ops5.NewWME([]string{"a", "b", "c", "d"}[rng.Intn(4)], "x", rng.Intn(3))
			w.ID, w.TimeTag = id, id
			id++
			step(rete.Add, w)
			live = append(live, w)
		}
		// Migrate to a fresh random partition between rounds.
		newPart := sched.Random(64, 4, int64(round+100))
		stats, err := rt.Repartition(newPart)
		if err != nil {
			t.Fatal(err)
		}
		if round > 0 && stats.BucketsMoved == 0 {
			t.Error("expected some buckets to move")
		}
	}
}

func TestRepartitionCostIsProportionalToState(t *testing.T) {
	// The paper's "too costly" claim, measured: after a cross-product
	// populates the memories, a full repartition ships every stored
	// token.
	net, _ := compileProds(t, `(p cross (a ^x <u>) (b ^y <w>) --> (halt))`)
	rt, err := New(net, Options{Workers: 4, NBuckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var changes []rete.Change
	for i := 1; i <= 40; i++ {
		class := "a"
		if i%2 == 0 {
			class = "b"
		}
		w := ops5.NewWME(class, "x", i)
		if class == "b" {
			w = ops5.NewWME(class, "y", i)
		}
		w.ID, w.TimeTag = i, i
		changes = append(changes, rete.Change{Tag: rete.Add, WME: w})
	}
	rt.Apply(changes)

	// Rotate every bucket to the next worker: all stored state moves.
	newPart := make(sched.Partition, 32)
	for b := range newPart {
		newPart[b] = (rt.opts.Partition[b] + 1) % 4
	}
	stats, err := rt.Repartition(newPart)
	if err != nil {
		t.Fatal(err)
	}
	// 40 wmes stored once each (cross product join: 20 left tokens +
	// 20 right wmes) — every one must travel.
	if stats.EntriesMoved != 40 {
		t.Errorf("entries moved = %d, want 40", stats.EntriesMoved)
	}
	if stats.BucketsMoved != 32 {
		t.Errorf("buckets moved = %d, want 32", stats.BucketsMoved)
	}
	if stats.Messages == 0 || stats.Messages > 32 {
		t.Errorf("messages = %d", stats.Messages)
	}

	// Matching still works after the rotation.
	w := ops5.NewWME("a", "x", 999)
	w.ID, w.TimeTag = 999, 999
	out := rt.Apply([]rete.Change{{Tag: rete.Add, WME: w}})
	adds := 0
	for _, ic := range out {
		if ic.Tag == rete.Add {
			adds++
		}
	}
	if adds != 20 { // pairs with the 20 b-wmes
		t.Errorf("new cross-product rows = %d, want 20", adds)
	}
}

func TestRepartitionValidation(t *testing.T) {
	net, _ := compileProds(t, `(p j (a ^x 1) --> (halt))`)
	rt, err := New(net, Options{Workers: 2, NBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Repartition(make(sched.Partition, 4)); err == nil {
		t.Error("short partition accepted")
	}
	bad := sched.RoundRobin(16, 5) // worker indices out of range
	if _, err := rt.Repartition(bad); err == nil {
		t.Error("out-of-range partition accepted")
	}
	// No-op repartition is free.
	stats, err := rt.Repartition(sched.RoundRobin(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BucketsMoved != 0 || stats.EntriesMoved != 0 {
		t.Errorf("no-op repartition moved %+v", stats)
	}
}

// TestMigrationBarrierCrossChecks: a migration's barrier is a cycle's
// (Driver.settle), so a carrier whose channel counts diverged from the
// credit counter is reported there too, not only at the next cycle's
// wait.
func TestMigrationBarrierCrossChecks(t *testing.T) {
	net, _ := compileProds(t, `(p j (a ^x <v>) (b ^x <v>) --> (halt))`)
	rt, err := New(net, Options{Workers: 2, NBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.counts[0].AddSent(1) // a message counted sent that nobody registered
	_, err = rt.Repartition(sched.Random(8, 2, 1))
	if err == nil || !strings.Contains(err.Error(), "channel counts diverged") {
		t.Fatalf("Repartition returned %v, want the channel-count divergence", err)
	}
}
