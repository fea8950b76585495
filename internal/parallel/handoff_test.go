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
// and at three, and holds the netted conflict-set deltas of every cycle
// to a sequential matcher's over the same network. It rides CI's -race run of this
// package, and it fails in the two ways the hand-off was first broken:
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

						var want netter
						id, cycle, standing := 1, 0, 0
						for r := 0; r < rounds; r++ {
							for _, ch := range prog.round(&id) {
								cycle++
								exp := want.net(seq.Apply(ch))
								got := rt.Apply(ch)
								if len(got) != len(exp) {
									t.Fatalf("round %d cycle %d (%d changes): %d deltas, sequential %d", r, cycle, len(ch), len(got), len(exp))
								}
								for i := range exp {
									if got[i].Tag != exp[i].Tag || !got[i].Same(&exp[i]) {
										t.Fatalf("round %d cycle %d: delta %d is %s %s, sequential %s %s",
											r, cycle, i, got[i].Tag, got[i].Key(), exp[i].Tag, exp[i].Key())
									}
									if exp[i].Tag == rete.Add {
										standing++
									} else {
										standing--
									}
								}
							}
							if standing != 0 {
								t.Fatalf("round %d: %d instantiations survive the delete burst", r, standing)
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
// allocates when it drains in place: nothing of its own. The netted
// result is carved from the driver's slab (rete.InstBuilder); every
// delta's wme array is lent from the head's processor, and its phase
// tokens are carved there too, from arenas the head rewinds at the top
// of each cycle; memory entries live in their buckets, and the FIFO is
// reused. What is left is a new slab or arena chunk every hundred-odd
// cycles. A key string or a map bucket per delta — what netting cost
// before it compared IDs — would show here, and so would anything the
// in-place path allocated per activation.
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

// TestNetMatchesKeyedReference holds the netter — identity by production
// and wme IDs, hashed and compared without building a key — to netting
// by InstChange.Key in a map, on random phases dense with repeats, and
// checks the order Cycle documents: production name, then IDs as
// numbers (so [2 10] precedes [10 2], which the key strings do not).
func TestNetMatchesKeyedReference(t *testing.T) {
	var infos []*rete.ProdInfo
	for i, name := range []string{"b", "a", "ab"} {
		p, err := ops5.ParseProduction(fmt.Sprintf(`(p %s (x ^v 1) -(y ^v 1) (z ^v 1) --> (halt))`, name))
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, &rete.ProdInfo{Prod: p, Node: &rete.Node{ID: i, Kind: rete.KindProduction}})
	}
	wmes := make([]*ops5.WME, 13)
	for i := range wmes {
		wmes[i] = ops5.NewWME("x", "v", 1)
		wmes[i].ID = i + 1
	}
	rng := newChaos(5, 0).rng
	var n netter
	for phase := 0; phase < 300; phase++ {
		raw := make([]rete.InstChange, rng.Intn(40))
		ref := map[string]int{}
		for i := range raw {
			raw[i] = rete.InstChange{
				Tag:  rete.Tag(rng.Intn(2)),
				Info: infos[rng.Intn(len(infos))],
				// The negated middle position is nil, as InstBuilder.Build leaves it.
				WMEs: []*ops5.WME{wmes[rng.Intn(4)*3], nil, wmes[rng.Intn(len(wmes))]},
			}
			if raw[i].Tag == rete.Add {
				ref[raw[i].Key()]++
			} else {
				ref[raw[i].Key()]--
			}
		}
		out := n.net(raw)
		for i := range out {
			k := out[i].Key()
			if want := ref[k]; want == 0 || (want > 0) != (out[i].Tag == rete.Add) {
				t.Fatalf("phase %d: %s %s, reference nets it to %d", phase, out[i].Tag, k, want)
			}
			delete(ref, k)
			if i > 0 && out[i-1].Compare(&out[i]) >= 0 {
				t.Fatalf("phase %d: %s before %s", phase, out[i-1].Key(), k)
			}
		}
		for k, want := range ref {
			if want != 0 {
				t.Fatalf("phase %d: %s nets to %d in the reference and is missing", phase, k, want)
			}
		}
	}
	a := rete.InstChange{Info: infos[1], WMEs: []*ops5.WME{wmes[1], nil, wmes[9]}}
	b := rete.InstChange{Info: infos[1], WMEs: []*ops5.WME{wmes[9], nil, wmes[1]}}
	if a.Compare(&b) >= 0 || a.Key() < b.Key() {
		t.Errorf("%s and %s: numeric order should differ from the keys' lexical order", a.Key(), b.Key())
	}
	if a.Compare(&rete.InstChange{Info: infos[2], WMEs: a.WMEs}) >= 0 {
		t.Error(`production "a" should precede "ab"`)
	}
}

// TestNetHandsOnAnAddsArray: a netted delta hands on an array that
// names its instantiation's wmes, whichever raw delta it came from, and
// that array is lent like every other: the engine's conflict set copies
// an Add's wmes into the member it fills, so an array need only read
// right until the next cycle. Two steps deliver the deltas of one
// instantiation, as two workers' turns do. Before the next phase the
// netted delta has the net's tag and reads as its wmes; once both
// processors begin their next phase with the poison on, every raw
// array, an Add's as much as a Delete's, reads as the sentinel, so
// nothing a netted delta carried was carved for good.
func TestNetHandsOnAnAddsArray(t *testing.T) {
	t.Cleanup(rete.PoisonRewinds())
	prog, err := ops5.ParseProgram(`(p pair (a ^v 1) -(veto ^v 1) (b ^v 1) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	term := net.Prods["pair"].Node
	wa, wb := ops5.NewWME("a", "v", 1), ops5.NewWME("b", "v", 1)
	wa.ID, wa.TimeTag, wb.ID, wb.TimeTag = 3, 3, 17, 17
	tab := rete.NewTable()
	tok := rete.Token{H: tab.Handles([]rete.Change{{Tag: rete.Add, WME: wa}, {Tag: rete.Add, WME: wb}}, nil)}

	const A, D = rete.Add, rete.Delete
	for _, row := range []struct {
		name    string
		steps   [2][]rete.Tag // the deltas each step delivers, in order
		want    rete.Tag      // the net's tag
		cancels bool          // the deltas net to nothing
	}{
		{"add, add | delete", [2][]rete.Tag{{A, A}, {D}}, A, false},
		{"add | delete, add, add, delete", [2][]rete.Tag{{A}, {D, A, A, D}}, A, false},
		{"delete, add | add", [2][]rete.Tag{{D, A}, {A}}, A, false},
		{"add, delete | add", [2][]rete.Tag{{A, D}, {A}}, A, false},
		{"delete | add", [2][]rete.Tag{{D}, {A}}, D, true},
		{"delete, delete | add", [2][]rete.Tag{{D, D}, {A}}, D, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			var raw []rete.InstChange
			var procs [2]*rete.Processor
			var builders [2]rete.InstBuilder
			for i, tags := range row.steps {
				procs[i] = rete.NewProcessor(net, 16, tab)
				procs[i].BeginPhase() // an owner that rewinds: the in-place head, a socket worker
				var acts []rete.Activation
				for _, tag := range tags {
					acts = append(acts, rete.Activation{Node: term, Side: rete.Left, Tag: tag, Token: tok})
				}
				raw = append(raw, builders[i].Build(procs[i], acts, nil)...)
			}
			var n netter
			out := n.net(raw)
			switch {
			case row.cancels && len(out) != 0:
				t.Fatalf("net = %v, want nothing", out)
			case !row.cancels && (len(out) != 1 || out[0].Tag != row.want):
				t.Fatalf("net = %v, want one %v", out, row.want)
			}
			for _, ic := range out {
				if got := ic.WMEs; len(got) != 3 || got[0] != wa || got[1] != nil || got[2] != wb {
					t.Fatalf("the netted %v reads %v, want [%v <nil> %v]", ic.Tag, got, wa, wb)
				}
			}
			for _, p := range procs {
				p.BeginPhase()
			}
			for i := range raw {
				for _, w := range raw[i].WMEs {
					if w == nil || w.ID != -1 {
						t.Fatalf("raw %v %d reads %v after the next phase began: it was not lent from the rewound arena", raw[i].Tag, i, raw[i].WMEs)
					}
				}
			}
		})
	}
}
