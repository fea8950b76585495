package parallel

import (
	"fmt"
	"math"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// handOffBudgets are the in-place budgets the hand-off is tested at:
// none (every cycle on the message plane), budgets small enough that
// one-change cycles hand off mid-expansion, the default's neighbourhood,
// and no limit (no cycle ever hands off).
var handOffBudgets = []int{0, 1, 3, 16, 64, math.MaxInt}

func budgetName(b int) string {
	if b == math.MaxInt {
		return "inf"
	}
	return fmt.Sprint(b)
}

// transient is a program of same-cycle transients: a token that is
// added and deleted in one match phase, with a node below it to store
// it. Negated condition elements compile after the positive ones, so
// open's first negation feeds its second: with the adds of an (item,
// veto) pair in one cycle, add(T) and del(T) reach the second negation
// in that cycle, and with their deletes in one cycle they do again. In
// deep, a link added in the cycle that deletes its item does the same
// to the (item, link) token below the first join. A pad wme is one
// root activation with no successor: n of them ahead of a pair put the
// pair's first half at activation n+1 of its cycle.
var transient = []string{
	`(p open   (item ^k <k>) -(veto ^k <k>) -(ban ^k <k>) --> (halt))`,
	`(p deep   (item ^k <k>) (link ^k <k> ^t <t>) (tag ^t <t>) --> (halt))`,
	`(p padded (pad ^v <v>) (never ^v <v>) --> (halt))`,
}

// transientPads are the pad counts of the transient program's ladder
// cycles. At one worker a budget of n+1 hands off between the halves of
// the pair: the frontier then holds, say, add(veto) ahead of add(T),
// and del(T) will derive from add(veto). n+1 is in handOffBudgets for
// four of these; the neighbours cover an item's second root activation
// and what three workers' round-robin shifts.
var transientPads = []int{0, 1, 2, 3, 14, 15, 16, 62, 63, 64}

// handOffRounds returns a generator of one round's cycles for each test
// program: a cross-product add burst, sixteen one-change cycles against
// the standing burst (then, for the transient program, its ladder), and
// the delete burst that empties the matcher.
func handOffRounds(t *testing.T) map[string]struct {
	net   *rete.Network
	round func(id *int) [][]rete.Change
} {
	t.Helper()
	mk := func(id *int, class string, pairs ...any) *ops5.WME {
		w := ops5.NewWME(class, pairs...)
		w.ID, w.TimeTag = *id, *id
		*id++
		return w
	}
	add := func(ws ...*ops5.WME) []rete.Change {
		var ch []rete.Change
		for _, w := range ws {
			ch = append(ch, rete.Change{Tag: rete.Add, WME: w})
		}
		return ch
	}
	del := func(ws ...*ops5.WME) []rete.Change {
		var ch []rete.Change
		for _, w := range ws {
			ch = append(ch, rete.Change{Tag: rete.Delete, WME: w})
		}
		return ch
	}

	tourneyProg, err := ops5.ParseProgram(workloads.TourneyLike)
	if err != nil {
		t.Fatal(err)
	}
	tourney, err := rete.Compile(tourneyProg.Productions)
	if err != nil {
		t.Fatal(err)
	}
	transientNet, _ := compileProds(t, transient...)

	return map[string]struct {
		net   *rete.Network
		round func(id *int) [][]rete.Change
	}{
		// workloads.TourneyLike at 12 teams by 10 slots: every (team,
		// slot) pair reaches the conflict set through a negated pairing.
		"tourney": {tourney, func(id *int) [][]rete.Change {
			board := []*ops5.WME{mk(id, "phase", "name", "propose")}
			for i := 1; i <= 12; i++ {
				board = append(board, mk(id, "team", "name", fmt.Sprintf("t%d", i)))
			}
			for i := 1; i <= 10; i++ {
				board = append(board, mk(id, "slot", "round", i, "field", fmt.Sprintf("f%d", i%2+1)))
			}
			cycles := [][]rete.Change{add(board...)}
			// Sixteen one-change cycles: a late team, the pairings that
			// veto four of its proposals, and all of it taken back.
			late := mk(id, "team", "name", "late")
			cycles = append(cycles, add(late))
			var pairings []*ops5.WME
			for r := 1; r <= 7; r++ {
				p := mk(id, "pairing", "team", "late", "round", r, "field", "f1")
				pairings = append(pairings, p)
				cycles = append(cycles, add(p))
			}
			for _, p := range pairings {
				cycles = append(cycles, del(p))
			}
			cycles = append(cycles, del(late))
			return append(cycles, del(board...))
		}},
		"transient": {transientNet, func(id *int) [][]rete.Change {
			var tags, links, items, vetoes, interleaved []*ops5.WME
			for i := 0; i < 6; i++ {
				tags = append(tags, mk(id, "tag", "t", i))
			}
			for k := 0; k < 10; k++ {
				for i := 0; i < 6; i += 2 {
					links = append(links, mk(id, "link", "k", k, "t", i))
				}
			}
			// Every item is followed, in the same cycle, by the veto that
			// blocks it — except the multiples of three, which stand.
			for k := 0; k < 10; k++ {
				it := mk(id, "item", "k", k)
				items = append(items, it)
				interleaved = append(interleaved, it)
				if k%3 != 0 {
					v := mk(id, "veto", "k", k)
					vetoes = append(vetoes, v)
					interleaved = append(interleaved, v)
				}
			}
			burst := append(append(append([]*ops5.WME{}, tags...), links...), interleaved...)
			cycles := [][]rete.Change{add(burst...)}
			// Sixteen one-change cycles: lift four vetoes, ban two
			// standing items, undo both, and flicker one more item.
			for _, v := range vetoes[:4] {
				cycles = append(cycles, del(v))
			}
			bans := []*ops5.WME{mk(id, "ban", "k", 0), mk(id, "ban", "k", 3)}
			for _, v := range bans {
				cycles = append(cycles, add(v))
			}
			for _, v := range bans {
				cycles = append(cycles, del(v))
			}
			for _, v := range vetoes[:4] {
				cycles = append(cycles, add(v))
			}
			probe := mk(id, "item", "k", 1)
			cycles = append(cycles, add(probe), del(probe), add(probe), del(probe))
			// The ladder, behind n pads each time. A blocked pair put up in
			// one cycle (the item's token is released and then vetoed) and
			// taken down in one (the veto goes first, so the token is
			// released again and then withdrawn with its item); then a
			// standing item whose link arrives in the cycle that deletes
			// it.
			for _, n := range transientPads {
				var pads []*ops5.WME
				for i := 0; i < n; i++ {
					pads = append(pads, mk(id, "pad", "v", i))
				}
				behind := func(ch ...rete.Change) []rete.Change { return append(add(pads...), ch...) }
				it, v := mk(id, "item", "k", 100+n), mk(id, "veto", "k", 100+n)
				cycles = append(cycles, behind(add(it, v)...), del(pads...))
				cycles = append(cycles, behind(del(v, it)...), del(pads...))
				it, l := mk(id, "item", "k", 200+n), mk(id, "link", "k", 200+n, "t", 0)
				cycles = append(cycles, add(it))
				cycles = append(cycles, behind(append(add(l), del(it)...)...), del(append(pads, l)...))
			}
			// The delete burst removes each veto just before its item.
			var down []rete.Change
			for _, it := range items {
				for _, v := range vetoes {
					if v.Get("k") == it.Get("k") {
						down = append(down, del(v)...)
					}
				}
				down = append(down, del(it)...)
			}
			down = append(down, del(links...)...)
			down = append(down, del(tags...)...)
			return append(cycles, down)
		}},
	}
}

// TestHandOffKeepsConflictSet drives the in-place head and its hand-off
// at every budget (and, as "chaos", at budgets the chaos layer draws,
// with its split and shuffled turns), in both root modes, at one worker
// and at three, and holds every cycle's conflict-set deltas, netted, to
// a sequential matcher's over the same network, and raw to the condition
// the engine's conflict set settles a phase by (applyDeltas). It rides
// CI's -race run of this package, and it fails in the two ways the
// hand-off was first broken:
// emptying a step's queue after the first delivery is visible is a data
// race on that queue (reported under -race, and otherwise a hang or a
// wrong set from one run to the next), and handing a worker its share
// one message at a time lets a derived delete overtake the add it
// cancels, which diverges here on the transient program within a few
// rounds (see Driver.handOff).
func TestHandOffKeepsConflictSet(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 10
	}
	for name, prog := range handOffRounds(t) {
		for _, routed := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				const chaos = -1
				for _, budget := range append([]int{chaos}, handOffBudgets...) {
					mode, bname := "bcast", budgetName(budget)
					if routed {
						mode = "routed"
					}
					opts := Options{Workers: workers, NBuckets: 64, RouteRoots: routed}
					if budget == chaos {
						bname, opts.ChaosSeed = "chaos", 42
					}
					t.Run(fmt.Sprintf("%s-%s-w%d-b%s", name, mode, workers, bname), func(t *testing.T) {
						t.Parallel()
						seq := rete.NewMatcher(prog.net, rete.MatcherOptions{NBuckets: 64})
						rt, err := New(prog.net, opts)
						if err != nil {
							t.Fatal(err)
						}
						defer rt.Close()
						if budget != chaos {
							rt.budget = budget
						}

						id, cycle, has := 1, 0, map[string]bool{}
						for r := 0; r < rounds; r++ {
							for _, ch := range prog.round(&id) {
								cycle++
								exp := netKeys(seq.Apply(ch))
								raw := rt.Apply(ch)
								applyDeltas(t, has, raw)
								if got := netKeys(raw); fmt.Sprint(got) != fmt.Sprint(exp) {
									t.Fatalf("round %d cycle %d (%d changes): deltas net to\n%v\nsequential\n%v", r, cycle, len(ch), got, exp)
								}
							}
							if len(has) != 0 {
								t.Fatalf("round %d: %d instantiations survive the delete burst", r, len(has))
							}
						}
						st := rt.Stats()
						switch {
						case budget == 0 && st.InPlace+st.HandedOff != 0:
							t.Errorf("budget 0: %d cycles in place, %d handed off", st.InPlace, st.HandedOff)
						case budget == math.MaxInt && (st.HandedOff != 0 || st.InPlace != int64(cycle)):
							t.Errorf("no budget: %d of %d cycles in place, %d handed off", st.InPlace, cycle, st.HandedOff)
						case (budget == chaos || budget > 0 && budget <= 64) && st.HandedOff == 0:
							t.Errorf("budget %s: no cycle of %d handed off", bname, cycle)
						}
					})
				}
			}
		}
	}
}

// TestInPlaceCycleAllocs pins what a warmed one-change cycle of 8-queens
// allocates when it drains in place: nothing of its own. The result is
// the driver's intake, reused across cycles; every delta's wme array is
// lent from the head's processor, and its phase tokens are carved there
// too, from arenas the head rewinds at the top of each cycle; memory
// entries live in their buckets, and the FIFO is reused. What is left
// is a new arena chunk every hundred-odd cycles. Anything the in-place
// path allocated per activation or per delta would show here.
func TestInPlaceCycleAllocs(t *testing.T) {
	prog, err := ops5.ParseProgram(workloads.Queens)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	board, err := ops5.ParseWMEs(workloads.QueensWMEs(8))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(net, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var load []rete.Change
	for i, w := range board {
		w.ID, w.TimeTag = i+1, i+1
		load = append(load, rete.Change{Tag: rete.Add, WME: w})
	}
	if got := rt.Apply(load); len(got) == 0 {
		t.Fatal("the board matched nothing")
	}
	// A threat on square (1, 1) takes one place instantiation out of the
	// conflict set; removing it puts the instantiation back.
	threat := ops5.NewWME("threat", "by-col", 0, "col", 1, "row", 1)
	threat.ID, threat.TimeTag = len(board)+1, len(board)+1
	on := []rete.Change{{Tag: rete.Add, WME: threat}}
	off := []rete.Change{{Tag: rete.Delete, WME: threat}}
	pair := func() {
		if d := rt.Apply(on); len(d) != 1 || d[0].Tag != rete.Delete {
			t.Fatalf("threat on: deltas %v, want one delete", d)
		}
		if d := rt.Apply(off); len(d) != 1 || d[0].Tag != rete.Add {
			t.Fatalf("threat off: deltas %v, want one add", d)
		}
	}
	pair() // warm the buffers
	before := rt.Stats()
	avg := testing.AllocsPerRun(200, pair)
	after := rt.Stats()
	if n := after.InPlace - before.InPlace; n != 2*201 || after.HandedOff != before.HandedOff {
		t.Fatalf("measured cycles: %d in place, %d handed off, want 402 and 0", n, after.HandedOff-before.HandedOff)
	}
	// AllocsPerRun rounds down: the chunks amortise to a fraction of an
	// allocation per pair and it reads 0 (6 before the slabs: a result,
	// a wme array and a time-tag array per cycle).
	t.Logf("%.0f allocations per in-place cycle pair", avg)
	if avg > 1 {
		t.Errorf("a one-change in-place cycle pair allocates %.0f times, want <= 1", avg)
	}
}
