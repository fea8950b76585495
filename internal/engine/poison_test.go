package engine_test

import (
	"bytes"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/rete"
)

// queensTranscript runs 8-queens to the halt at watch level 1 and
// returns the firing transcript. Every check cycles, check sees the
// session between two firings.
func queensTranscript(t *testing.T, every int, check func(s *engine.Session)) string {
	t.Helper()
	var out bytes.Buffer
	s := queensSession(t, engine.SessionOptions{Watch: 1, Output: &out})
	for {
		in, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if in == nil {
			break
		}
		if check != nil && s.Fired()%every == 0 {
			check(s)
		}
	}
	if s.Fired() < 2000 {
		t.Fatalf("8-queens stopped after %d firings", s.Fired())
	}
	return out.String()
}

// TestPoisonedRewinds is the engine's share of the proof that a delta's
// array is only ever lent and that a retired row or instantiation is
// never read again. With every array the matcher's lent arena recycles
// overwritten by rete's sentinel wme (id -1), every row a match phase
// deletes scrubbed to read as it, and every retired instantiation's
// production nil — all quarantined, never reused — a conflict set that
// had kept a lent array or a dead row would resolve on time tag -1,
// print it, and act on wme -1: the transcript of 8-queens, 2,033 firings
// over hundreds of removes, is the one recorded without the poison; no
// member of any conflict set on the way names the sentinel; and the
// instantiation Step returns reads as retired once the next Step has
// run.
func TestPoisonedRewinds(t *testing.T) {
	clean := queensTranscript(t, 0, nil)
	t.Cleanup(rete.PoisonRewinds())
	t.Run("StepResultBelongsToCaller", func(t *testing.T) { checkStepResult(t, true) })
	t.Run("ConflictSetKeepsNoLentArray", func(t *testing.T) {
		checked := 0
		got := queensTranscript(t, 25, func(s *engine.Session) {
			for _, in := range s.ConflictSet() {
				checked++
				for _, w := range in.WMEs {
					if w != nil && w.ID < 0 {
						t.Fatalf("after %d firings %s holds a rewound array: %v", s.Fired(), in.Key(), in.WMEs)
					}
				}
				if len(in.TimeTags) > 0 && in.TimeTags[0] < 0 {
					t.Fatalf("after %d firings %s has time tags %v", s.Fired(), in.Key(), in.TimeTags)
				}
			}
		})
		if checked == 0 {
			t.Fatal("no conflict-set member was looked at")
		}
		if got != clean {
			t.Fatal("8-queens fires differently with rewound arrays poisoned")
		}
	})
}
