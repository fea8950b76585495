package parallel

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/workloads"
)

// recordingMatcher runs the match on a sequential matcher and keeps
// every cycle's change list. Each wme is a copy the engine's row
// recycling cannot rewrite, and a Delete names its Add's copy.
type recordingMatcher struct {
	inner  *rete.Matcher
	copies map[int]*ops5.WME
	cycles [][]rete.Change
}

func (r *recordingMatcher) Apply(changes []rete.Change) []rete.InstChange {
	cycle := make([]rete.Change, len(changes))
	for i, ch := range changes {
		w, ok := r.copies[ch.WME.ID]
		if ch.Tag == rete.Add || !ok {
			w = ch.WME.Clone()
			r.copies[w.ID] = w
		}
		cycle[i] = rete.Change{Tag: ch.Tag, WME: w}
	}
	r.cycles = append(r.cycles, cycle)
	return r.inner.Apply(changes)
}

// queensCycles runs 8-queens on the sequential engine and returns its
// network and the change list of each of its match phases.
func queensCycles(t *testing.T) (*rete.Network, [][]rete.Change) {
	t.Helper()
	prog, err := ops5.ParseProgram(workloads.Queens)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	board, err := ops5.ParseWMEs(workloads.QueensWMEs(8))
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingMatcher{inner: rete.NewMatcher(c.Network(), rete.MatcherOptions{}), copies: map[int]*ops5.WME{}}
	s := c.NewSession(engine.SessionOptions{Matcher: rec})
	s.InsertWMEs(board...)
	if fired, err := s.Run(100_000); err != nil || fired != 2033 {
		t.Fatalf("8-queens fired %d times (%v), want 2033", fired, err)
	}
	return c.Network(), rec.cycles
}

// countingListener counts each match phase's activations.
type countingListener struct{ acts []int64 }

func (l *countingListener) BeginCycle(int, []rete.Change)      { l.acts = append(l.acts, 0) }
func (l *countingListener) Activation(rete.Event)              { l.acts[len(l.acts)-1]++ }
func (l *countingListener) Instantiation(rete.InstChange, int) {}
func (l *countingListener) EndCycle(int)                       {}

func processedSum(rt *Runtime) (n int64) {
	for _, p := range rt.Stats().Processed {
		n += p
	}
	return n
}

// TestInPlaceHeadIsTheSequentialLoop holds the in-place head, at a
// budget no cycle outgrows, to the sequential matcher's loop: on every
// cycle of 8-queens, at one, two and three workers and in both root
// modes, the activations booked to the owners add up to exactly those a
// rete.Matcher performs — each activation is booked once, to one owner,
// and a production-node activation, which is a delta and not match
// work, to none.
func TestInPlaceHeadIsTheSequentialLoop(t *testing.T) {
	net, cycles := queensCycles(t)
	var count countingListener
	seq := rete.NewMatcher(net, rete.MatcherOptions{Listener: &count})
	for _, ch := range cycles {
		seq.Apply(ch)
	}
	for _, routed := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("w%d-routed=%v", workers, routed), func(t *testing.T) {
				rt, err := New(net, Options{Workers: workers, RouteRoots: routed})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				rt.budget = math.MaxInt
				var before int64
				for i, ch := range cycles {
					rt.Apply(ch)
					after := processedSum(rt)
					if after-before != count.acts[i] {
						t.Fatalf("cycle %d: the owners were booked %d activations, the sequential matcher performed %d", i+1, after-before, count.acts[i])
					}
					before = after
				}
				if st := rt.Stats(); st.InPlace != int64(len(cycles)) || st.HandedOff != 0 {
					t.Fatalf("%d cycles in place, %d handed off, want %d and 0", st.InPlace, st.HandedOff, len(cycles))
				}
			})
		}
	}
}

// bucketEntries extracts bucket b of p's memories and puts it back,
// returning its entries as a sorted multiset: a left entry by node,
// token handles and count, a right one by node and wme handle.
func bucketEntries(p *rete.Processor, b int) []string {
	bc := p.ExtractBucket(b)
	p.InjectBucket(bc)
	var out []string
	for i, tok := range bc.LeftTokens {
		out = append(out, fmt.Sprintf("L%d%v#%d", bc.LeftNodes[i].ID, tok.H, bc.LeftCounts[i]))
	}
	for i, h := range bc.RightWMEs {
		out = append(out, fmt.Sprintf("R%d:%d", bc.RightNodes[i].ID, h))
	}
	slices.Sort(out)
	return out
}

// TestOneMemoryPair: in process there is one pair of hash tables. Every
// step's processor shares the driver's, and after each stretch of
// 8-queens — cycles handed off at budget 16, nearly all run in place at
// 256, and the partition rotated at every boundary so every stored
// entry changes owner every cycle — the pair holds, bucket by bucket,
// what a sequential matcher's holds after the same change lists. The
// two tables register the same changes at the same points, so a wme has
// the same handle in both. Under TestPoisonedRewinds a stored token
// whose run came from a rewound arena reads as the sentinel here.
func TestOneMemoryPair(t *testing.T) {
	net, cycles := queensCycles(t)
	for _, budget := range []int{16, inPlaceActs} {
		t.Run(budgetName(budget), func(t *testing.T) {
			seq := rete.NewMatcher(net, rete.MatcherOptions{})
			left, right := seq.Memories()
			ref := rete.NewProcessorOver(net, nil, left, right)
			rt, err := New(net, Options{Workers: 2, ForceMigrate: func(cycle int) sched.Partition {
				return rotatedPartition(rete.DefaultNBuckets, 2, cycle)
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rt.budget = budget
			l0, r0 := rt.proc.Memories()
			for _, s := range rt.steps {
				if l, r := s.proc.Memories(); l != l0 || r != r0 {
					t.Fatalf("step %d has a memory pair of its own", s.id)
				}
			}
			for i, ch := range cycles {
				seq.Apply(ch)
				rt.Apply(ch)
				if i%64 != 63 && i != len(cycles)-1 {
					continue
				}
				for b := range rete.DefaultNBuckets {
					got, want := bucketEntries(rt.proc, b), bucketEntries(ref, b)
					if !slices.Equal(got, want) {
						t.Fatalf("cycle %d, bucket %d: the runtime holds %v, the sequential matcher %v", i+1, b, got, want)
					}
				}
			}
			if st := rt.Stats(); budget == 16 && st.HandedOff == 0 {
				t.Fatal("budget 16: no cycle handed off")
			}
			if migs, moved, entries := rt.RebalanceStats(); migs != int64(len(cycles)) || moved == 0 || entries == 0 {
				t.Fatalf("%d migrations moved %d buckets (%d entries) over %d cycles", migs, moved, entries, len(cycles))
			}
		})
	}
}
