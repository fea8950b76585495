package parallel

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/raceflag"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// TestEngineOnParallelRuntime runs complete OPS5 programs with the
// match phase on the goroutine runtime and checks that the firing
// sequence is identical to the sequential engine's: conflict sets are
// equal after every match phase, and conflict resolution is a pure
// function of the set.
func TestEngineOnParallelRuntime(t *testing.T) {
	cases := []struct {
		name, program, wmes string
		cycles              int
	}{
		{"blocks", workloads.BlocksWorld, workloads.BlocksWorldWMEs(6), 300},
		{"tourney-like", workloads.TourneyLike, workloads.TourneyLikeWMEs(7, 5), 300},
		{"counter", workloads.CounterChain, "(counter ^value 0 ^limit 15)", 100},
		{"monkey", workloads.MonkeyBananas, workloads.MonkeyBananasWMEs, 50},
		{"queens", workloads.Queens, workloads.QueensWMEs(5), 20000},
		{"configurator", workloads.Configurator,
			workloads.ConfiguratorWMEs(
				workloads.ConfiguratorOrder{ID: "a", CPUs: 2, Disks: 5, PowerMax: 100},
				workloads.ConfiguratorOrder{ID: "b", CPUs: 1, Disks: 2, PowerMax: 80},
			), 2000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(par bool, workers int, routed bool) (string, int, bool) {
				prog, err := ops5.ParseProgram(c.program)
				if err != nil {
					t.Fatal(err)
				}
				net, err := rete.Compile(prog.Productions)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				opts := engine.SessionOptions{Output: &out}
				if par {
					rt, err := New(net, Options{Workers: workers, RouteRoots: routed})
					if err != nil {
						t.Fatal(err)
					}
					defer rt.Close()
					opts.Matcher = rt
				}
				e, err := engine.NewWithNetwork(prog, net, opts)
				if err != nil {
					t.Fatal(err)
				}
				wmes, err := ops5.ParseWMEs(c.wmes)
				if err != nil {
					t.Fatal(err)
				}
				e.InsertWMEs(wmes...)
				fired, err := e.Run(c.cycles)
				if err != nil {
					t.Fatal(err)
				}
				return out.String(), fired, e.Halted()
			}

			seqOut, seqFired, seqHalted := run(false, 0, false)
			for _, routed := range []bool{false, true} {
				for _, workers := range []int{1, 3, 6} {
					parOut, parFired, parHalted := run(true, workers, routed)
					if parFired != seqFired || parHalted != seqHalted {
						t.Fatalf("workers=%d routed=%v: fired/halted %d/%v, sequential %d/%v",
							workers, routed, parFired, parHalted, seqFired, seqHalted)
					}
					if parOut != seqOut {
						t.Fatalf("workers=%d routed=%v: output diverged:\n--- sequential ---\n%s--- parallel ---\n%s",
							workers, routed, seqOut, parOut)
					}
				}
			}
		})
	}
}

// TestParQueensBytesPerFiring is TestQueensBytesPerFiring (engine) on
// the goroutine runtime, in the unit the benchmark's par-queens row
// reports: heap bytes per firing of an 8-queens session whose match
// phase runs on parallel.New with two workers, from the runtime's
// construction to its Close, run to the halt.
//
// The raw reading has two modes, and the scheduler picks one. In the
// load cycle, the one cycle the in-place head hands off, a worker's
// flush can reach the other worker's mailbox before that worker has
// drained the control's share of 102 activations. Then the push doubles
// the queue under the undrained share (mailbox.regrown: 204 slots of
// Message, 8.0 bytes a firing) and the next turn is that much larger
// (Step.reserve, about 1.7 more). The other order regrows nothing, or 9
// slots. Which comes first moves between rounds: out of 180 runs at
// GOMAXPROCS 2 and 1, 88 regrew a share. So the pin subtracts the
// regrown slots, which the mailbox counts, and reads the rest:
// 273.2–276.6. Raw, the runs read 273.5–276.9 and 283.0–284.3
// (274.2–275.7 and 284.0–287.3 while a delta carried its wme run as a
// slice header; 276.4–277.3 and 286.2–286.8 before match storage came
// from one leaf package's arenas and pools; 281.9–288.1 while the
// steps' queues and shares, the in-place head's FIFO and a phase's
// handle list grew from empty by doubling; 343.5–354.9 while every
// token a memory stored came from an arena nothing but Reset rewound; 444.3–455.7 while the driver netted each cycle's deltas into a
// result slab of its own; 530.5 while each step had a memory pair of
// its own and the in-place head dealt the roots into messages and
// per-step queues; 819.4 while every make and modify allocated its row
// and every instantiation its record and arrays).
func TestParQueensBytesPerFiring(t *testing.T) {
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
	rt, err := New(c.Network(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewSession(engine.SessionOptions{Matcher: rt})
	s.InsertWMEs(board...)
	fired, err := s.Run(100_000)
	rt.Close()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2033 {
		t.Fatalf("8-queens fired %d times, want 2033", fired)
	}
	regrown := 0
	for _, w := range rt.workers {
		regrown += w.inbox.regrown
	}
	total := float64(after.TotalAlloc - before.TotalAlloc)
	perFiring := (total - float64(regrown)*float64(unsafe.Sizeof(Message{}))) / float64(fired)
	t.Logf("%d firings, %.1f heap bytes per firing, %.1f without the %d mailbox slots regrown", fired, total/float64(fired), perFiring, regrown)
	const pinned = 276.6
	if perFiring > pinned*1.03 {
		t.Errorf("%.1f heap bytes per firing without the regrown mailbox slots, want at most %.1f", perFiring, pinned*1.03)
	}
}

// TestParQueensRunAllocs pins the heap objects of a whole 8-queens run
// on the goroutine runtime, as TestQueensRunAllocs (engine) does the
// sequential one's and TestWireQueensRunAllocs (transport) the star's:
// parallel.New with two workers, a session over it, the board loaded,
// run to the halt, Close. It reads 250 to 251 (301 to 302 while the
// steps' queues and shares, the in-place head's FIFO and a phase's
// handle list grew from empty by doubling).
func TestParQueensRunAllocs(t *testing.T) {
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
	n := testing.AllocsPerRun(5, func() {
		rt, err := New(c.Network(), Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		s := c.NewSession(engine.SessionOptions{Matcher: rt})
		s.InsertWMEs(board...)
		fired, err := s.Run(100_000)
		rt.Close()
		if err != nil || fired != 2033 {
			t.Fatalf("8-queens fired %d times (%v), want 2033", fired, err)
		}
	})
	t.Logf("a whole 8-queens run on two goroutine workers makes %.0f heap objects", n)
	const pinned = 251
	if n > pinned*1.05 {
		t.Errorf("a whole 8-queens run on two goroutine workers makes %.0f heap objects, want at most %.0f", n, pinned*1.05)
	}
}
