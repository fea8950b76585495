package workloads

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mpcrete/internal/trace"
)

func TestTable52Calibration(t *testing.T) {
	cases := []struct {
		tr          *trace.Trace
		left, right int
		cycles      int
	}{
		{Rubik(), 2388, 6114, 4},
		{Tourney(), 10667, 83, 5},
		{Weaver(), 338, 78, 4},
	}
	for _, c := range cases {
		if err := c.tr.Validate(); err != nil {
			t.Fatalf("%s: %v", c.tr.Name, err)
		}
		s := c.tr.Stats()
		if s.LeftActivations != c.left || s.RightActivations != c.right {
			t.Errorf("%s: %d L / %d R, want %d / %d (Table 5-2)",
				c.tr.Name, s.LeftActivations, s.RightActivations, c.left, c.right)
		}
		if s.Cycles != c.cycles {
			t.Errorf("%s: %d cycles, want %d", c.tr.Name, s.Cycles, c.cycles)
		}
	}
}

func TestSectionsDeterministic(t *testing.T) {
	a, b := Rubik(), Rubik()
	la, lb := a.BucketLoad(true), b.BucketLoad(true)
	for c := range la {
		if len(la[c]) != len(lb[c]) {
			t.Fatalf("cycle %d: nondeterministic generator", c)
		}
		for k, v := range la[c] {
			if lb[c][k] != v {
				t.Fatalf("cycle %d bucket %d: %d vs %d", c, k, v, lb[c][k])
			}
		}
	}
}

func TestTourneyCrossProductConcentration(t *testing.T) {
	tr := Tourney()
	loads := tr.BucketLoad(true)
	cross := loads[2]
	// The hot bucket dominates every other bucket by far.
	hotLoad := cross[TourneyHotBucket]
	if hotLoad < 1500 {
		t.Errorf("hot bucket load = %d, want >= 1500", hotLoad)
	}
	second := 0
	for b, l := range cross {
		if b != TourneyHotBucket && l > second {
			second = l
		}
	}
	if second*20 > hotLoad {
		t.Errorf("second-busiest bucket %d too close to hot %d", second, hotLoad)
	}
	// Surrounding cycles must be small.
	for _, c := range []int{0, 1, 3, 4} {
		if n := tr.Cycles[c].Activations(); n > 200 {
			t.Errorf("cycle %d has %d activations, want small", c, n)
		}
	}
}

func TestTourneyMultipleModifyPairs(t *testing.T) {
	// The hot node receives alternating add/delete waves (the
	// multiple-modify effect).
	cy := Tourney().Cycles[2]
	adds, dels := 0, 0
	cy.Walk(func(a *trace.Activation) {
		if a.Node != TourneyHotNode || a.Side != trace.LeftSide {
			return
		}
		if a.Tag == trace.AddTag {
			adds++
		} else {
			dels++
		}
	})
	if adds == 0 || dels == 0 || adds != dels {
		t.Errorf("hot add/delete = %d/%d, want equal halves", adds, dels)
	}
}

func TestScatterNodeSpreadsHotBucket(t *testing.T) {
	tr := Tourney()
	cc := trace.ScatterNode(tr, TourneyHotNode, 8)
	if err := cc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same activation totals (copy-and-constraint only re-buckets).
	if a, b := tr.Stats(), cc.Stats(); a.Total != b.Total || a.Instantiations != b.Instantiations {
		t.Errorf("stats changed: %+v vs %+v", a, b)
	}
	load := cc.BucketLoad(true)[2]
	hot := load[TourneyHotBucket]
	orig := tr.BucketLoad(true)[2][TourneyHotBucket]
	if hot*4 > orig {
		t.Errorf("hot bucket still holds %d of original %d", hot, orig)
	}
	// The spread covers ~8 buckets with similar loads.
	big := 0
	for _, l := range load {
		if l >= orig/16 {
			big++
		}
	}
	if big < 8 {
		t.Errorf("only %d buckets carry the scattered load", big)
	}
}

func TestRubikBusyIdleAlternation(t *testing.T) {
	tr := Rubik()
	loads := tr.BucketLoad(true)
	// Active left buckets in consecutive cycles are disjoint clusters;
	// in the same-parity cycles they coincide.
	overlap := func(a, b map[int]int) int {
		n := 0
		for k := range a {
			if b[k] > 0 {
				n++
			}
		}
		return n
	}
	if o := overlap(loads[0], loads[1]); o != 0 {
		t.Errorf("cycles 0/1 share %d active left buckets, want 0 (alternation)", o)
	}
	if o := overlap(loads[0], loads[2]); o == 0 {
		t.Error("cycles 0/2 should share their active cluster")
	}
	// Within a cycle the distribution is skewed: the busiest bucket
	// far exceeds the mean.
	max, sum := 0, 0
	for _, l := range loads[0] {
		if l > max {
			max = l
		}
		sum += l
	}
	mean := float64(sum) / float64(len(loads[0]))
	if float64(max) < 2*mean {
		t.Errorf("cycle 0 max load %d vs mean %.1f: want skew", max, mean)
	}
}

func TestWeaverHotCycle(t *testing.T) {
	tr := Weaver()
	hot := tr.Cycles[1]
	bigFanouts := 0
	generated := 0
	hot.Walk(func(a *trace.Activation) {
		if len(a.Children) >= 40 {
			bigFanouts++
			generated += len(a.Children)
		}
	})
	if bigFanouts != 3 || generated != 120 {
		t.Errorf("hot cycle: %d big-fanout activations generating %d, want 3/120", bigFanouts, generated)
	}
	total := hot.Activations()
	if total < 140 || total > 160 {
		t.Errorf("hot cycle total = %d, want ~150", total)
	}
	for _, c := range tr.Cycles {
		if n := c.Activations(); n > 160 {
			t.Errorf("weaver cycle has %d activations; all cycles must be small", n)
		}
	}
}

func TestSplitFanoutReducesBottleneck(t *testing.T) {
	tr := Weaver()
	split := trace.SplitFanout(tr, 10, 4)
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	// Max fan-out shrinks to ~40/4.
	maxBefore, maxAfter := tr.Stats().MaxSuccessors, split.Stats().MaxSuccessors
	if maxAfter >= maxBefore {
		t.Errorf("split did not reduce max fan-out: %d -> %d", maxBefore, maxAfter)
	}
	// Leaf work is preserved; only the split activations duplicate.
	sb, sa := tr.Stats(), split.Stats()
	if sa.Instantiations != sb.Instantiations {
		t.Errorf("instantiations changed: %d -> %d", sb.Instantiations, sa.Instantiations)
	}
	if sa.Total <= sb.Total || sa.Total > sb.Total+30 {
		t.Errorf("activations %d -> %d: want a few duplicated copies only", sb.Total, sa.Total)
	}
}

func TestSplitFanoutNoopBelowThreshold(t *testing.T) {
	tr := Rubik() // max fan-out is 1
	split := trace.SplitFanout(tr, 10, 4)
	if a, b := tr.Stats(), split.Stats(); a != b {
		t.Errorf("stats changed on no-op split: %+v vs %+v", a, b)
	}
}

func TestBlocksWorldPipeline(t *testing.T) {
	tr, e, err := RecordRun("blocks", BlocksWorld, BlocksWorldWMEs(4), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Halted() {
		t.Error("blocks world should halt")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Cycles < 5 || s.Total == 0 {
		t.Errorf("trace too small: %+v", s)
	}
	if s.Instantiations == 0 {
		t.Error("no instantiations recorded")
	}
}

func TestTourneyLikePipelineIsCrossProduct(t *testing.T) {
	const teams, slots = 6, 5
	tr, e, err := RecordRun("tourney-like", TourneyLike, TourneyLikeWMEs(teams, slots), 100)
	if err != nil {
		t.Fatal(err)
	}
	// Every (team, slot) pairing is proposed once.
	pairings := 0
	// Count pairings via fired count: propose fired teams*slots times,
	// plus nothing else fires (done-proposing never matches while
	// teams exist).
	if e.Fired() != teams*slots {
		t.Errorf("fired = %d, want %d pairings", e.Fired(), teams*slots)
	}
	_ = pairings
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestActivationForestPinned pins the sequential matcher's activation
// forest — every activation's (Seq, ParentSeq, node id, side, tag) and
// the instantiations each generated — as one digest per run, for
// 6-queens and tourney-like. The matcher performs activations in FIFO
// order, so a cycle's breadth-first walk numbers them as their Seq did.
// Key and Bucket are left out on purpose: a new hash fold changes them
// and must change nothing here. The digests were recorded while
// successors still went through a buffer of their own on the way to the
// queue and keys were folded byte by byte.
func TestActivationForestPinned(t *testing.T) {
	for name, want := range map[string]uint64{
		"queens":       0x21f97c80c208e761,
		"tourney-like": 0x174e7dc7df30ece3,
	} {
		np, err := Named(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := RecordRun(name, np.Program, np.WMEs, np.MaxCycles)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf []byte
		for _, c := range tr.Cycles {
			buf = binary.AppendVarint(buf[:0], int64(c.RootInsts))
			type queued struct {
				a      *trace.Activation
				parent int
			}
			var queue []queued
			for _, a := range c.Roots {
				queue = append(queue, queued{a, -1})
			}
			for seq := 0; seq < len(queue); seq++ {
				a := queue[seq].a
				for _, x := range []int{seq, queue[seq].parent, a.Node, int(a.Side), int(a.Tag), a.Insts} {
					buf = binary.AppendVarint(buf, int64(x))
				}
				for _, ch := range a.Children {
					queue = append(queue, queued{ch, seq})
				}
			}
			h.Write(buf)
		}
		if got := h.Sum64(); got != want {
			t.Errorf("%s: %d cycles, activation forest digest %#x, want %#x", name, len(tr.Cycles), got, want)
		}
	}
}

func TestCounterChainPipeline(t *testing.T) {
	tr, e, err := RecordRun("counter", CounterChain, "(counter ^value 0 ^limit 8)", 50)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Halted() {
		t.Error("counter should halt at limit")
	}
	if got := len(tr.Cycles); got < 8 {
		t.Errorf("cycles = %d, want >= 8", got)
	}
}

func TestMonkeyBananasPlan(t *testing.T) {
	tr, e, err := RecordRun("mab", MonkeyBananas, MonkeyBananasWMEs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Halted() {
		t.Fatal("monkey should reach the bananas and halt")
	}
	if e.Fired() != 5 {
		t.Errorf("fired = %d, want 5 (walk, push, climb, grab, done)", e.Fired())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := tr.Stats(); s.Instantiations == 0 || s.Total == 0 {
		t.Errorf("trace stats = %+v", s)
	}
}
