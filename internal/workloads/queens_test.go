package workloads

import (
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// solveQueens runs the solver and returns the engine plus the queen
// positions (col -> row) extracted from working memory.
func solveQueens(t *testing.T, n, maxCycles int) (*engine.Session, map[int]int) {
	t.Helper()
	prog, err := ops5.ParseProgram(Queens)
	if err != nil {
		t.Fatal(err)
	}
	rec := newQueenInspector()
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{Listener: rec})
	if err != nil {
		t.Fatal(err)
	}
	wmes, err := ops5.ParseWMEs(QueensWMEs(n))
	if err != nil {
		t.Fatal(err)
	}
	e.InsertWMEs(wmes...)
	if _, err := e.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	return e, rec.queens()
}

// queenInspector tracks live queen wmes through the match listener.
type queenInspector struct {
	live map[int]int // wme id -> col*1000+row
}

func newQueenInspector() *queenInspector { return &queenInspector{live: map[int]int{}} }

func (q *queenInspector) BeginCycle(cycle int, changes []rete.Change) {
	for _, ch := range changes {
		if ch.WME.Class != "queen" {
			continue
		}
		if ch.Tag == rete.Add {
			q.live[ch.WME.ID] = int(ch.WME.Get("col").Num)*1000 + int(ch.WME.Get("row").Num)
		} else {
			delete(q.live, ch.WME.ID)
		}
	}
}
func (q *queenInspector) Activation(rete.Event)              {}
func (q *queenInspector) Instantiation(rete.InstChange, int) {}
func (q *queenInspector) EndCycle(int)                       {}

func (q *queenInspector) queens() map[int]int {
	out := map[int]int{}
	for _, cr := range q.live {
		out[cr/1000] = cr % 1000
	}
	return out
}

// validSolution checks the no-attack invariant.
func validSolution(n int, queens map[int]int) bool {
	if len(queens) != n {
		return false
	}
	for c1 := 1; c1 <= n; c1++ {
		for c2 := c1 + 1; c2 <= n; c2++ {
			r1, r2 := queens[c1], queens[c2]
			if r1 == 0 || r2 == 0 {
				return false
			}
			d := c2 - c1
			if r1 == r2 || r2 == r1+d || r2 == r1-d {
				return false
			}
		}
	}
	return true
}

func TestQueensSolvesWithBacktracking(t *testing.T) {
	for _, n := range []int{1, 4, 5, 6} {
		e, queens := solveQueens(t, n, 20000)
		if !e.Halted() {
			t.Fatalf("n=%d: did not halt", n)
		}
		if !validSolution(n, queens) {
			t.Errorf("n=%d: invalid solution %v", n, queens)
		}
	}
}

func TestQueensBacktracks(t *testing.T) {
	// n=4 has no greedy (first-fit) solution from row 1: the solver
	// must pop at least once. Count pop firings via the fired total:
	// a pure greedy run would fire exactly n place + threats + solved;
	// more firings imply backtracking occurred. Use n=6 for certainty
	// and compare against the theoretical no-backtrack floor.
	e, _ := solveQueens(t, 6, 20000)
	// Greedy floor: 6 places + 1 solved + threat markings (< 200).
	if e.Fired() < 210 {
		t.Errorf("fired = %d: suspiciously few firings; did it backtrack?", e.Fired())
	}
}

func TestQueensUnsolvable(t *testing.T) {
	for _, n := range []int{2, 3} {
		e, queens := solveQueens(t, n, 20000)
		if !e.Halted() {
			t.Fatalf("n=%d: did not halt", n)
		}
		if len(queens) != 0 {
			t.Errorf("n=%d: unsolvable instance left queens %v", n, queens)
		}
	}
}

func TestQueensTraceRecordsSearch(t *testing.T) {
	tr, e, err := RecordRun("queens", Queens, QueensWMEs(5), 20000)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Halted() {
		t.Fatal("did not halt")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Cycles < 20 {
		t.Errorf("cycles = %d; the search should take many MRA cycles", s.Cycles)
	}
}
