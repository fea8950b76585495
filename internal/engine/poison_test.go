package engine_test

import (
	"bytes"
	"testing"

	"mpcrete/internal/alloc"
	"mpcrete/internal/engine"
	"mpcrete/internal/rete"
)

// queensTranscript runs 8-queens to the halt at watch level 1 and
// returns the firing transcript. Every check cycles, check sees the
// session between two firings. With wrap non-nil the session matches
// on what wrap makes of a sequential matcher over its network.
func queensTranscript(t *testing.T, every int, check func(s *engine.Session), wrap func(*rete.Matcher) engine.MatchApplier) string {
	t.Helper()
	var out bytes.Buffer
	c, board := queensBoard(t)
	opts := engine.SessionOptions{Watch: 1, Output: &out}
	if wrap != nil {
		opts.Matcher = wrap(rete.NewMatcher(c.Network(), rete.MatcherOptions{}))
	}
	s := c.NewSession(opts)
	s.InsertWMEs(board...)
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
// member of any conflict set on the way names the sentinel; the
// instantiation Step returns reads as retired once the next Step has
// run; and every match result is handed back to the matcher only once
// the conflict set has read it — the matcher scrubs what it takes
// back, so an engine that read a result after handing it back would
// fire on the sentinel.
func TestPoisonedRewinds(t *testing.T) {
	clean := queensTranscript(t, 0, nil, nil)
	t.Cleanup(alloc.Poison())
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
		}, nil)
		if checked == 0 {
			t.Fatal("no conflict-set member was looked at")
		}
		if got != clean {
			t.Fatal("8-queens fires differently with rewound arrays poisoned")
		}
	})
	t.Run("SnapshotOutlivesItsRows", checkSnapshotsOutlive)
	t.Run("HandedBackDeltasReadScrubbed", func(t *testing.T) {
		var spy *handBackSpy
		got := queensTranscript(t, 0, nil, func(m *rete.Matcher) engine.MatchApplier {
			spy = &handBackSpy{Matcher: m, t: t}
			return spy
		})
		if spy.records == 0 || spy.handedBack != spy.applied {
			t.Fatalf("%d of %d results handed back, %d records in them: the engine does not hand every result back", spy.handedBack, spy.applied, spy.records)
		}
		if got != clean {
			t.Fatal("8-queens fires differently with handed-back results scrubbed")
		}
	})
}

// handBackSpy is a sequential matcher that counts the results the
// engine is given and hands back, and checks that each handed-back
// record reads as scrubbed (rete.Matcher.Recycle under the poison).
type handBackSpy struct {
	*rete.Matcher
	t                            *testing.T
	applied, handedBack, records int
}

func (s *handBackSpy) Apply(changes []rete.Change) []rete.InstChange {
	s.applied++
	return s.Matcher.Apply(changes)
}

func (s *handBackSpy) Recycle(result []rete.InstChange) {
	s.handedBack++
	s.Matcher.Recycle(result)
	for i := range result {
		s.records++
		for _, w := range result[i].WMEs {
			if w.ID != -1 {
				s.t.Fatalf("handed-back delta %s reads wme %d, want the sentinel", result[i].Key(), w.ID)
			}
		}
	}
}
