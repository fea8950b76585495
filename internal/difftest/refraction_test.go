package difftest

import (
	"bytes"
	"strings"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
)

// TestRefractionOnEveryRow runs one session on every row of the matrix,
// the TCP and rebalance rows included: it asserts (a ^n 1) and runs, so
// fire[1] fires; then it asserts (c), which blocks fire[1], and retracts
// (c) before the next run, so one match phase unmakes fire[1] and makes
// it again. The instantiation never left the match for a whole phase
// and keeps its refraction: every row fires exactly once. The
// sequential matcher reports the phase's Delete and Add in order, and
// the engine's conflict set, not the matcher, settles it
// (engine.Session's absorb); a set that applied the Add as a new member
// would fire fire[1] twice on the seq-* rows.
func TestRefractionOnEveryRow(t *testing.T) {
	prog, err := ops5.ParseProgram(`(p fire (a ^n <n>) -(c) --> (write fired <n>))`)
	if err != nil {
		t.Fatal(err)
	}
	wme := func(src string) *ops5.WME {
		ws, err := ops5.ParseWMEs(src)
		if err != nil {
			t.Fatal(err)
		}
		return ws[0]
	}
	opts := CheckOptions{TCP: true, Rebalance: true}.withDefaults()
	for _, cfg := range configMatrix(opts) {
		t.Run(cfg.name, func(t *testing.T) {
			var out bytes.Buffer
			var s engine.API
			finish := func() error { return nil }
			if cfg.build == nil { // the sessions row: a pooled session
				c, err := engine.Compile(prog, engine.CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				pool := engine.NewSessionPool(c, engine.SessionOptions{Output: &out, NBuckets: checkNBuckets})
				ps := pool.Get()
				defer pool.Put(ps)
				s = ps
			} else {
				b, err := cfg.build(prog.Productions, opts)
				if err != nil {
					t.Fatal(err)
				}
				if b.finish != nil {
					finish = b.finish
				}
				e, err := engine.NewWithNetwork(prog, b.net, engine.SessionOptions{Matcher: b.matcher, Output: &out})
				if err != nil {
					t.Fatal(err)
				}
				s = e
			}
			s.Assert(wme("(a ^n 1)"))
			first, err := s.RunCycles(10)
			if err != nil {
				t.Fatal(err)
			}
			c := s.Assert(wme("(c)"))
			if !s.Retract(c[0].ID) {
				t.Fatal("retracting the pending (c) found no wme")
			}
			second, err := s.RunCycles(10)
			if err != nil {
				t.Fatal(err)
			}
			if err := finish(); err != nil {
				t.Fatal(err)
			}
			if first != 1 || second != 0 || strings.Count(out.String(), "fired") != 1 {
				t.Fatalf("fired %d, then %d; output %q: want fire[1] once", first, second, out.String())
			}
		})
	}
}
