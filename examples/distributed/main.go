// Distributed: run the REAL parallel distributed-Rete runtime — match
// processors as goroutines, tokens as messages, distributed
// termination detection — and check it against the sequential matcher.
package main

import (
	"fmt"
	"log"

	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/workloads"
)

func main() {
	prog, err := ops5.ParseProgram(workloads.TourneyLike)
	if err != nil {
		log.Fatal(err)
	}

	// One network for both matchers: it is read-only while matching, and
	// token memories live in each matcher, not in the network.
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		log.Fatal(err)
	}

	seq := rete.NewMatcher(net, rete.MatcherOptions{})
	rt, err := parallel.New(net, parallel.Options{
		Workers:  4,
		Detector: parallel.FourCounterDetector, // Mattern's method
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	// Feed both the same wme stream: teams and slots whose pairing
	// production is a pure cross product.
	wmes, err := ops5.ParseWMEs(workloads.TourneyLikeWMEs(10, 8))
	if err != nil {
		log.Fatal(err)
	}
	seqCS, parCS := map[string]bool{}, map[string]bool{}
	for i, w := range wmes {
		w.ID, w.TimeTag = i+1, i+1
		ch := []rete.Change{{Tag: rete.Add, WME: w}}
		for _, ic := range seq.Apply(ch) {
			apply(seqCS, ic)
		}
		for _, ic := range rt.Apply(ch) {
			apply(parCS, ic)
		}
	}

	fmt.Printf("sequential conflict set: %d instantiations\n", len(seqCS))
	fmt.Printf("parallel conflict set:   %d instantiations\n", len(parCS))
	if !equal(seqCS, parCS) {
		log.Fatal("DIVERGENCE between sequential and parallel match")
	}
	fmt.Println("conflict sets identical ✓")

	st := rt.Stats()
	fmt.Println("\nper-worker activations (bucket ownership decides placement):")
	for w, n := range st.Processed {
		fmt.Printf("  worker %d: %6d activations, %6d messages sent\n", w, n, st.MsgsSent[w])
	}
	fmt.Printf("instantiation messages to control: %d\n", st.Insts)

	// Live bucket migration: the cost the paper called prohibitive,
	// measured. Rotate every bucket to the next worker.
	newPart := make(sched.Partition, rete.DefaultNBuckets)
	for b := range newPart {
		newPart[b] = (b + 1) % 4
	}
	mig, err := rt.Repartition(newPart)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull repartition: %d buckets reassigned, %d stored tokens migrated in %d messages\n",
		mig.BucketsMoved, mig.EntriesMoved, mig.Messages)

	// Matching continues correctly on the new layout.
	w := ops5.NewWME("team", "name", "t-late")
	w.ID, w.TimeTag = 10_000, 10_000
	late := rt.Apply([]rete.Change{{Tag: rete.Add, WME: w}})
	fmt.Printf("post-migration match still works: %d new pairings for a late team\n", len(late))
}

func apply(cs map[string]bool, ic rete.InstChange) {
	if ic.Tag == rete.Add {
		cs[ic.Key()] = true
	} else {
		delete(cs, ic.Key())
	}
}

func equal(a, b map[string]bool) bool {
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
