package engine_test

import (
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// holdsItsWidth fails unless ic's wme run reads back as long as its
// production's left-hand side, empty exactly at the negated condition
// elements.
func holdsItsWidth(t *testing.T, what string, ic *rete.InstChange) {
	t.Helper()
	ws := ic.WMEs()
	if len(ws) != len(ic.Info.Prod.LHS) {
		t.Fatalf("%s of %s reads %d wmes, its production has %d condition elements", what, ic.Info.Prod.Name, len(ws), len(ic.Info.Prod.LHS))
	}
	for i, w := range ws {
		if (w == nil) != ic.Info.Prod.LHS[i].Negated {
			t.Fatalf("%s of %s: position %d reads %v", what, ic.Info.Prod.Name, i, w)
		}
	}
}

// widthMatcher is a sequential matcher whose every result is held to
// its productions' widths (holdsItsWidth) before the engine reads it.
type widthMatcher struct {
	t      *testing.T
	m      *rete.Matcher
	deltas int
}

func (w *widthMatcher) Apply(changes []rete.Change) []rete.InstChange {
	out := w.m.Apply(changes)
	for i := range out {
		holdsItsWidth(w.t, "a delta Processor.Build made", &out[i])
	}
	w.deltas += len(out)
	return out
}

func (w *widthMatcher) Recycle(result []rete.InstChange) { w.m.Recycle(result) }

// TestEveryDeltaHasItsProductionsWidth runs 8-queens and tourney-like
// to the end and holds to its production's width every delta the
// matcher builds (Processor.Build) and, after every firing, the delta
// that names each conflict-set member (Instantiation.delta): both are
// made by rete.NewInstChange, whose WMEs reads the run at the width it
// was checked against.
func TestEveryDeltaHasItsProductionsWidth(t *testing.T) {
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
			m := &widthMatcher{t: t, m: rete.NewMatcher(c.Network(), rete.MatcherOptions{})}
			s := c.NewSession(engine.SessionOptions{Matcher: m})
			s.InsertWMEs(wmes...)
			members := 0
			for range wl.MaxCycles {
				in, err := s.Step()
				if err != nil {
					t.Fatal(err)
				}
				if in == nil {
					break
				}
				for _, in := range s.ConflictSet() {
					d := engine.DeltaOf(in)
					holdsItsWidth(t, "a member's delta", &d)
					members++
				}
			}
			if s.Fired() == 0 || m.deltas == 0 || members == 0 {
				t.Fatalf("%d firings, %d deltas, %d members checked: vacuous", s.Fired(), m.deltas, members)
			}
			t.Logf("%d firings: %d deltas built, %d members' deltas checked", s.Fired(), m.deltas, members)
		})
	}
}
