package transport

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/wire"
	"mpcrete/internal/workloads"
)

// holdsItsWidth fails unless ic's wme run reads back as long as its
// production's left-hand side, empty exactly at the negated condition
// elements.
func holdsItsWidth(t *testing.T, ic *rete.InstChange) {
	t.Helper()
	ws := ic.WMEs()
	if len(ws) != len(ic.Info.Prod.LHS) {
		t.Fatalf("a decoded delta of %s reads %d wmes, its production has %d condition elements", ic.Info.Prod.Name, len(ws), len(ic.Info.Prod.LHS))
	}
	for i, w := range ws {
		if (w == nil) != ic.Info.Prod.LHS[i].Negated {
			t.Fatalf("a decoded delta of %s: position %d reads %v", ic.Info.Prod.Name, i, w)
		}
	}
}

// starWidths is a star runtime whose every result is held to its
// productions' widths before the engine reads it.
type starWidths struct {
	t      *testing.T
	rt     *parallel.Runtime
	deltas int
}

func (s *starWidths) Apply(changes []rete.Change) []rete.InstChange {
	out := s.rt.Apply(changes)
	for i := range out {
		holdsItsWidth(s.t, &out[i])
	}
	s.deltas += len(out)
	return out
}

// TestStarDeltasHaveTheirProductionsWidth runs 8-queens and
// tourney-like to the end over the star in one process. The star has
// no in-place head, so every delta the engine reads was decoded from a
// worker's turn frame (dec.instChange, through rete.NewInstChange), and
// each reads back its production's width.
func TestStarDeltasHaveTheirProductionsWidth(t *testing.T) {
	for _, name := range []string{"queens", "tourney-like"} {
		t.Run(name, func(t *testing.T) {
			wl, err := workloads.Named(name)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ops5.ParseProgram(wl.Program)
			if err != nil {
				t.Fatal(err)
			}
			c, err := engine.Compile(prog, engine.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wmes, err := ops5.ParseWMEs(wl.WMEs)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := parallel.New(c.Network(), parallel.Options{Workers: 2, Transport: NewLoopback(c.Network())})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			m := &starWidths{t: t, rt: rt}
			s := c.NewSession(engine.SessionOptions{Matcher: m})
			s.InsertWMEs(wmes...)
			fired, err := s.Run(wl.MaxCycles)
			if err != nil {
				t.Fatal(err)
			}
			if fired == 0 || m.deltas == 0 {
				t.Fatalf("%d firings, %d deltas: vacuous", fired, m.deltas)
			}
			t.Logf("%d firings, %d decoded deltas", fired, m.deltas)
		})
	}
}

// TestMiscountedDeltaSeedsFailFirst decodes every committed
// FuzzTurnFrame seed. One whose delta declares a position count other
// than its production's (the short, long and empty forgeries) fails
// with ErrBadPayload for that reason before any delta is made of it:
// the decoder refuses the count before rete.NewInstChange, which would
// panic on the run, is reached. Every delta of a seed that decodes
// reads back its production's width.
func TestMiscountedDeltaSeedsFailFirst(t *testing.T) {
	network, _ := mustCompile("blocks")
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzTurnFrame", "*"))
	if err != nil {
		t.Fatal(err)
	}
	miscounted, decoded := 0, 0
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(strings.TrimSuffix(string(raw), ")\n"), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(quoted)
		if !ok || err != nil {
			t.Fatalf("%s is not a []byte corpus entry (%v)", path, err)
		}
		d := &dec{Dec: wire.Dec{B: []byte(data)}, nbuckets: rete.DefaultNBuckets, workers: 2, tab: fixtureTable(), layouts: network.Layouts()}
		tf := new(turnFrame)
		err = d.turn(network, tf)
		if err == nil {
			for i := range tf.turn.Insts {
				holdsItsWidth(t, &tf.turn.Insts[i])
			}
			decoded += len(tf.turn.Insts)
		}
		if err == nil || !strings.Contains(err.Error(), " wme positions, the production has ") {
			continue
		}
		miscounted++
		if !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: %v, want ErrBadPayload", path, err)
		}
		for i, ic := range tf.turn.Insts {
			if ic != (rete.InstChange{}) {
				t.Errorf("%s: delta %d of a refused frame was made (%s)", path, i, ic.Info.Prod.Name)
			}
		}
	}
	if decoded == 0 {
		t.Fatal("no committed seed decodes to a delta")
	}
	if miscounted < 3 {
		t.Fatalf("%d committed seeds miscount a delta's positions, want the short, long and empty forgeries", miscounted)
	}
}
