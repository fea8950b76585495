package parallel

import (
	"bytes"
	"runtime"
	"testing"

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
// construction to its Close, run to the halt. It reads 343.5–354.9,
// 343.9 in most runs alone and 351.7 after the package's other tests
// (444.3–455.7 while the driver netted each cycle's deltas into a
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
	perFiring := float64(after.TotalAlloc-before.TotalAlloc) / float64(fired)
	t.Logf("%d firings, %.1f heap bytes per firing", fired, perFiring)
	const pinned = 351.7
	if perFiring > pinned*1.03 {
		t.Errorf("%.1f heap bytes per firing, want at most %.1f", perFiring, pinned*1.03)
	}
}
