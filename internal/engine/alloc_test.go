package engine_test

import (
	"fmt"
	"runtime"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/raceflag"
	"mpcrete/internal/workloads"
)

// queensBoard compiles 8-queens and parses its board.
func queensBoard(t *testing.T) (*engine.Compiled, []*ops5.WME) {
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
	return c, board
}

// queensSession opens a session on the 8-queens board.
func queensSession(t *testing.T, opts engine.SessionOptions) *engine.Session {
	t.Helper()
	c, board := queensBoard(t)
	s := c.NewSession(opts)
	s.InsertWMEs(board...)
	return s
}

// TestSteadyStateStepAllocs pins what a match-resolve-act cycle
// allocates once the session is warm: one object in a hundred cycles,
// an arena region or the result array the engine hands back now and
// then. The deltas, their arrays, the members and their arrays,
// the conflict set's bookkeeping, the memory entries and the regions
// of the buckets that hold them, the tokens, the bind values and the
// wmes of makes and modifies are none of them heap objects of their
// own. It reads 0.01 (0.19 while every growth of a memory bucket was a
// heap object, a firing's bind values grew a fresh slice and an act
// that found no free row allocated one; 0.21 while every
// result's records were carved from a slab that never reused a region;
// 1.00 while every make and modify allocated its row and every member
// came from a chunk that was never reused; 1.02 while a token had a
// header carved from chunks of its own; 1.05 while every delta carried
// sorted time tags of its own and a Delete delta's array was carved for
// good; 6.4 when each of those was a heap object). 8-queens fires 2,033
// times; the window is cycles 200 to 1,900.
func TestSteadyStateStepAllocs(t *testing.T) {
	s := queensSession(t, engine.SessionOptions{})
	step := func() {
		if in, err := s.Step(); err != nil || in == nil {
			t.Fatalf("8-queens stopped after %d firings: %v", s.Fired(), err)
		}
	}
	for i := 0; i < 200; i++ {
		step()
	}
	const window = 100
	avg := testing.AllocsPerRun(16, func() {
		for i := 0; i < window; i++ {
			step()
		}
	}) / window
	t.Logf("%.3f allocations per steady-state cycle", avg)
	if avg > 0.01 {
		t.Errorf("a steady-state 8-queens cycle allocates %.3f times, want <= 0.01", avg)
	}
}

// TestStepResultBelongsToCaller: the instantiation Step returns, and
// the wmes it points at, are the caller's to read until the next Step.
// Over a whole 8-queens run each firing reads the same after every
// other call a caller may make in between — ConflictSet, Snapshot,
// WMEs, Fired — as it did when Step returned it. And it is only lent:
// the conflict set recycles fired instantiations, so the 2,033 firings
// come back in far fewer records than that.
func TestStepResultBelongsToCaller(t *testing.T) { checkStepResult(t, false) }

// checkStepResult runs 8-queens one Step at a time, holding each
// result across the caller's reads and then across the next Step. With
// poisoned set, the rewinds are poisoned (alloc.Poison), so a
// result held past its Step must read as retired: its production nil,
// and every wme the next Step deleted the sentinel (id -1).
func checkStepResult(t *testing.T, poisoned bool) {
	s := queensSession(t, engine.SessionOptions{})
	show := func(in *engine.Instantiation) string {
		return fmt.Sprint(in.Key(), in.Prod.Name, in.TimeTags, in.WMEs)
	}
	records := map[*engine.Instantiation]bool{}
	var held *engine.Instantiation
	var ids []int
	scrubbed := 0
	for {
		in, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if poisoned && held != nil {
			if held.Prod != nil {
				t.Fatalf("after firing %d the instantiation fired before it still reads as %s", s.Fired(), held.Prod.Name)
			}
			live := map[int]bool{}
			for _, w := range s.WMEs() {
				live[w.ID] = true
			}
			for i, w := range held.WMEs {
				switch {
				case w == nil || live[ids[i]] && w.ID == ids[i]:
				case w.ID == -1:
					scrubbed++
				default:
					t.Fatalf("after firing %d a wme the firing before it held and the match deleted reads as %d: %s", s.Fired(), w.ID, w)
				}
			}
		}
		if in == nil {
			break
		}
		records[in] = true
		want := show(in)
		s.ConflictSet()
		s.Snapshot()
		s.WMEs()
		if got := show(in); got != want || s.Fired() == 0 {
			t.Fatalf("firing %d changed before the next Step:\n now %s\n was %s", s.Fired(), got, want)
		}
		held, ids = in, ids[:0]
		for _, w := range in.WMEs {
			id := 0
			if w != nil {
				id = w.ID
			}
			ids = append(ids, id)
		}
	}
	if s.Fired() != 2033 {
		t.Fatalf("8-queens fired %d times, want 2033", s.Fired())
	}
	switch {
	case !poisoned && len(records) > s.Fired()/4:
		t.Errorf("%d firings came in %d instantiation records: the conflict set does not recycle", s.Fired(), len(records))
	case poisoned && scrubbed == 0:
		t.Error("no held instantiation read a retired wme as the sentinel")
	}
}

// TestQueensBytesPerFiring is the allocation twin of transport's
// TestWireBytesPerFiring, in the unit the benchmark's seq-queens row
// reports: heap bytes per firing of an 8-queens session, opened on a
// compiled network and run to the halt. It reads 198.9 (250.5 while
// every token a memory stored came from an arena nothing but Reset
// rewound, so a removed entry's run was never reused; 258.9 while
// every growth of a memory bucket was a heap object of its own; 270.4 while
// the board's rows were an allocation each and a map kept working
// memory by ID; 375.0 while
// every result's 40-byte records were carved from a slab that never
// reused a region instead of built in the result the engine handed
// back; 735.1 while every make and modify allocated its row, every
// member its record and arrays, and every Add delta its array; 931.1
// while a token was a 24-byte header beside its references, an entry
// of either memory 32 bytes, the match queue as long as the phase and
// every row of up to four slots four wide).
func TestQueensBytesPerFiring(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("escape analysis decides differently under the race detector")
	}
	c, board := queensBoard(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := c.NewSession(engine.SessionOptions{})
	s.InsertWMEs(board...)
	fired, err := s.Run(100_000)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2033 {
		t.Fatalf("8-queens fired %d times, want 2033", fired)
	}
	perFiring := float64(after.TotalAlloc-before.TotalAlloc) / float64(fired)
	t.Logf("%d firings, %.1f heap bytes per firing", fired, perFiring)
	if perFiring > 198.9*1.03 {
		t.Errorf("%.1f heap bytes per firing, want at most %.1f", perFiring, 198.9*1.03)
	}
}

// TestQueensRunAllocs pins the heap objects of a whole 8-queens run:
// a session opened on a compiled network, the board loaded, run to the
// halt. Unlike TestSteadyStateStepAllocs' warm window it sees every
// memory bucket grow from empty, the first rows of every width and the
// first growth of every scratch slice. It reads 168 to 169 and is
// pinned a few objects above (177 to 178 while a phase's handle list
// grew from empty by doubling, not to its changes at once; 179 to 181
// while the bucket regions' free
// lists grew 1, 2, 4… from empty and the store's and the rows' started
// at 32 slots; 212 to 214 while stored tokens came from
// a never-rewound arena and a layout's free rows grew their list 1, 2,
// 4… from empty; 1,350 while every growth of a bucket was a heap object
// of its own, a firing's bind values grew a fresh slice and an act that
// found no free row allocated one).
func TestQueensRunAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("escape analysis decides differently under the race detector")
	}
	c, board := queensBoard(t)
	n := testing.AllocsPerRun(5, func() {
		s := c.NewSession(engine.SessionOptions{})
		s.InsertWMEs(board...)
		if fired, err := s.Run(100_000); err != nil || fired != 2033 {
			t.Fatalf("8-queens fired %d times (%v), want 2033", fired, err)
		}
	})
	t.Logf("a whole 8-queens run makes %.0f heap objects", n)
	if n > 172 {
		t.Errorf("a whole 8-queens run makes %.0f heap objects, want at most 172", n)
	}
}

// TestBulkRowsComeByTheChunk: a batch of wmes costs heap objects by
// the row width, not by the wme. Loading the 8-queens board (571 wmes
// of one, two and four slots) into a fresh session makes 7 objects:
// the pending changes and a chunk of rows per width, the 504 four-slot
// rows in four (a chunk holds at most 32 KiB). Copying the final
// working memory (655 wmes of one to four slots) makes 8: the result
// and the chunks. They read 581 and 656 while every row was an
// allocation of its own.
func TestBulkRowsComeByTheChunk(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("escape analysis decides differently under the race detector")
	}
	c, board := queensBoard(t)
	s := c.NewSession(engine.SessionOptions{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.InsertWMEs(board...)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 7 {
		t.Errorf("loading %d wmes into a fresh session makes %d heap objects, want at most 7", len(board), n)
	}
	if _, err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() { s.WMEs() }); n > 8 {
		t.Errorf("copying %d live wmes makes %v heap objects, want at most 8", s.WMCount(), n)
	}
}

// TestSnapshotOutlivesItsRows: a snapshot taken mid-run reads the same
// once later phases have deleted the wmes it copied and their rows
// have been refilled (or, under the poison, scrubbed to the sentinel).
func TestSnapshotOutlivesItsRows(t *testing.T) { checkSnapshotsOutlive(t) }

// checkSnapshotsOutlive snapshots 8-queens every 250 firings and, once
// the run has halted, checks every snapshot's wmes against what they
// read when it was taken.
func checkSnapshotsOutlive(t *testing.T) {
	type taken struct {
		snap *engine.Snapshot
		text string
	}
	render := func(s *engine.Snapshot) string {
		var b []byte
		for _, w := range s.WMEs {
			b = fmt.Appendf(b, "%d:%d ", w.ID, w.TimeTag)
			b = w.AppendText(b)
			b = append(b, '\n')
		}
		return string(b)
	}
	var snaps []taken
	queensTranscript(t, 250, func(s *engine.Session) {
		snap := s.Snapshot()
		snaps = append(snaps, taken{snap, render(snap)})
	}, nil)
	if len(snaps) < 8 {
		t.Fatalf("took %d snapshots", len(snaps))
	}
	for i, sn := range snaps {
		if got := render(sn.snap); got != sn.text {
			t.Fatalf("snapshot %d changed after the run went on:\n now %.200s\n was %.200s", i, got, sn.text)
		}
	}
}
