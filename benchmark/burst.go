package main

import (
	"fmt"
	"math/rand"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

const (
	burstTeams = 60
	burstSlots = 50
)

// burstInstance is one long-lived sequential matcher that is filled
// by a wide add burst and emptied by the matching delete burst, over
// and over, without Reset: the delete path must really unwind every
// join and negation the add path built.
type burstInstance struct {
	matcher *rete.Matcher
	adds    []rete.Change
	dels    []rete.Change
	digest  uint64
	want    int                 // instantiations standing after the add burst
	setup   map[string]*spanAgg // traced set-up spans
	insts   int64               // traced phase: conflict-set deltas seen
	ops     int
	peak    int
}

func setupBurst(sc setupCtx) (instance, error) {
	t := sc.tr.newTrack("set-up", 16)
	sp := t.begin("ops5.parse_program", 0)
	prog, err := ops5.ParseProgram(workloads.TourneyLike)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("rete.compile", 0)
	network, err := rete.Compile(prog.Productions)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("ops5.parse_wmes", 0)
	wmes, err := ops5.ParseWMEs(workloads.TourneyLikeWMEs(burstTeams, burstSlots))
	t.end(sp)
	if err != nil {
		return nil, err
	}
	// The seed shuffles the add order and, independently, the delete
	// order; the cross product is the same 60x50 either way.
	rng := rand.New(rand.NewSource(sc.seed))
	rng.Shuffle(len(wmes), func(i, j int) { wmes[i], wmes[j] = wmes[j], wmes[i] })
	b := &burstInstance{
		matcher: rete.NewMatcher(network, rete.MatcherOptions{}),
		digest:  wmeDigest(wmes),
		want:    burstTeams * burstSlots,
	}
	for i, w := range wmes {
		w.ID, w.TimeTag = i+1, i+1
		b.adds = append(b.adds, rete.Change{Tag: rete.Add, WME: w})
		b.dels = append(b.dels, rete.Change{Tag: rete.Delete, WME: w})
	}
	rng.Shuffle(len(b.dels), func(i, j int) { b.dels[i], b.dels[j] = b.dels[j], b.dels[i] })

	// The first burst on the cold matcher is rete.load_us: hash tables
	// and arenas grow here and never again.
	sp = t.begin("match.load", 0)
	_, err = b.op(0, 0, nil)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("cold burst: %w", err)
	}
	if t != nil {
		b.setup = aggregate(t)
	}
	return b, nil
}

func (b *burstInstance) close()              {}
func (b *burstInstance) inputDigest() uint64 { return b.digest }

// standing nets a burst's deltas: adds minus deletes.
func standing(deltas []rete.InstChange) int {
	n := 0
	for _, d := range deltas {
		if d.Tag == rete.Add {
			n++
		} else {
			n--
		}
	}
	return n
}

func (b *burstInstance) op(client, i int, t *track) (int64, error) {
	sp := t.begin("rete.burst_add", i)
	added := b.matcher.Apply(b.adds)
	t.end(sp)
	left, right := b.matcher.Memories()
	entries := left.Len() + right.Len()
	sp = t.begin("rete.burst_del", i)
	deleted := b.matcher.Apply(b.dels)
	t.end(sp)

	work := int64(len(added) + len(deleted))
	if t != nil {
		b.ops++
		b.insts += work
		b.peak = max(b.peak, entries)
	}
	if got := standing(added); got != b.want {
		return work, fmt.Errorf("%d instantiations after the add burst, want %d", got, b.want)
	}
	if got := standing(added) + standing(deleted); got != 0 {
		return work, fmt.Errorf("%d instantiations left after the delete burst", got)
	}
	if l, r := left.Len(), right.Len(); l != 0 || r != 0 {
		return work, fmt.Errorf("memories not empty after the delete burst: left %d, right %d", l, r)
	}
	return work, nil
}

func (b *burstInstance) layers(lc *layerCtx) {
	out, sp := lc.out, lc.spans
	add, del := sp["rete.burst_add"], sp["rete.burst_del"]
	both := append(append([]float64(nil), add.durs...), del.durs...)
	out["ops5.parse_program_us"] = b.setup["ops5.parse_program"].mean()
	out["ops5.parse_wmes_us"] = b.setup["ops5.parse_wmes"].mean()
	out["rete.compile_us"] = b.setup["rete.compile"].mean()
	out["rete.load_us"] = b.setup["match.load"].mean()
	out["rete.apply_p50_us"] = quantile(both, 0.50)
	out["rete.apply_p99_us"] = quantile(both, 0.99)
	out["rete.apply_share"] = ratio(add.total()+del.total(), sp["op"].total())
	out["rete.burst_add_p50_us"] = add.quantile(0.50)
	out["rete.burst_del_p50_us"] = del.quantile(0.50)
	out["rete.insts_per_op"] = ratio(float64(b.insts), float64(b.ops))
	out["rete.mem_entries_peak"] = float64(b.peak)
}
