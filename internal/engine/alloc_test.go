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

// queensSession opens a session on the 8-queens board.
func queensSession(t *testing.T, opts engine.SessionOptions) *engine.Session {
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
	s := c.NewSession(opts)
	s.InsertWMEs(board...)
	return s
}

// TestSteadyStateStepAllocs pins what a match-resolve-act cycle
// allocates once the session is warm: the wme its firing makes, and a
// fraction each for the token reference, slab and instantiation chunks.
// The deltas, their arrays, the members' time tags, the conflict set's
// bookkeeping, the memory entries and the tokens are none of them heap
// objects of their own. It reads 1.00 (1.02 while a token had a header
// carved from chunks of its own; 1.05 while every delta carried sorted
// time tags of its own and a Delete delta's array was carved for good;
// 6.4 when each of those was a heap object). 8-queens fires 2,033
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
	if avg > 1.25 {
		t.Errorf("a steady-state 8-queens cycle allocates %.2f times, want <= 1.25", avg)
	}
}

// TestStepResultBelongsToCaller: the instantiation Step returns, and
// the arrays it points at, are carved from chunks that are never
// reused, so a caller may keep one across any number of later cycles.
func TestStepResultBelongsToCaller(t *testing.T) {
	s := queensSession(t, engine.SessionOptions{})
	type kept struct {
		in   *engine.Instantiation
		want string
	}
	show := func(in *engine.Instantiation) string {
		return fmt.Sprint(in.Key(), in.Prod.Name, in.TimeTags, in.WMEs)
	}
	var held []kept
	for {
		in, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if in == nil {
			break
		}
		if s.Fired() <= 40 || s.Fired()%97 == 0 {
			held = append(held, kept{in, show(in)})
		}
	}
	if s.Fired() < 1000+40 {
		t.Fatalf("only %d firings: the first instantiations were not held across a thousand cycles", s.Fired())
	}
	for i, k := range held {
		if got := show(k.in); got != k.want {
			t.Fatalf("held instantiation %d changed under later cycles:\n now %s\n was %s", i, got, k.want)
		}
	}
}

// TestQueensBytesPerFiring is the allocation twin of transport's
// TestWireBytesPerFiring, in the unit the benchmark's seq-queens row
// reports: heap bytes per firing of an 8-queens session, opened on a
// compiled network and run to the halt. It reads 735.1 (931.1 while a
// token was a 24-byte header beside its references, an entry of either
// memory 32 bytes, the match queue as long as the phase and every row
// of up to four slots four wide).
func TestQueensBytesPerFiring(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("escape analysis decides differently under the race detector")
	}
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
	if perFiring > 735.1*1.03 {
		t.Errorf("%.1f heap bytes per firing, want at most %.1f", perFiring, 735.1*1.03)
	}
}
