package rete

import (
	"slices"

	"mpcrete/internal/ops5"
)

// Table is a runtime's working memory as the match names it: a dense
// slice of wmes indexed by an int32 handle. Tokens, right activations
// and right memory entries name wmes by handle. Handle 0 is never handed
// out: it is an activation's absent wme, and its row is poisonWME, which
// a scrubbed token reads as.
//
// The sequential Matcher and the parallel cycle driver register each
// phase's changes (Handles) before its first activation: an Add takes a
// free handle, a Delete finds its wme's by WME.ID (the handle cannot
// live in the WME: one wme object may be applied to two runtimes). A
// live wme has exactly one handle, so handles compare as identities
// (Token.Same, a right memory's removal). A deleted wme keeps its handle
// until the owner begins its next phase (BeginPhase), because the
// phase's delete tokens still name it. Under PoisonRewinds a freed
// handle is quarantined instead — never reused, its row poisonWME — so a
// token that outlives its wme reads as a wrong delta.
//
// A wire worker's table mirrors its control's: definitions fill its
// rows at the control's handles (Define), and it frees none.
type Table struct {
	rows    []*ops5.WME
	byID    map[int]int32
	free    []int32 // handles ready for reuse
	retired []int32 // deleted this phase; free from the next
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{rows: []*ops5.WME{poisonWME}} }

// WME resolves handle h: nil for a handle the table has never filled.
func (t *Table) WME(h int32) *ops5.WME {
	if h <= 0 || int(h) >= len(t.rows) {
		return nil
	}
	return t.rows[h]
}

// Len returns one past the highest handle the table has given out or
// filled.
func (t *Table) Len() int { return len(t.rows) }

// Handles registers a phase's changes and appends one handle per change
// to out, which grows once, to hold them all. An Add of an ID the table
// holds keeps its handle (a live production addition replays live
// wmes); a Delete of one it does not hold — a duplicate — gets a handle
// for the phase only.
func (t *Table) Handles(changes []Change, out []int32) []int32 {
	// Sized for the first phase, a session's initial working memory: an
	// index grown entry by entry costs twice the bytes.
	if t.byID == nil {
		t.byID = make(map[int]int32, len(changes))
	}
	t.rows = slices.Grow(t.rows, len(changes))
	out = slices.Grow(out, len(changes))
	for _, ch := range changes {
		id := ch.WME.ID
		h, ok := t.byID[id]
		if !ok {
			if n := len(t.free); n > 0 {
				h, t.free = t.free[n-1], t.free[:n-1]
			} else {
				h = int32(len(t.rows))
				t.rows = append(t.rows, nil)
			}
		}
		t.rows[h] = ch.WME
		if ch.Tag == Add {
			t.byID[id] = h
		} else {
			delete(t.byID, id)
			t.retired = append(t.retired, h)
		}
		out = append(out, h)
	}
	return out
}

// BeginPhase frees the handles of the wmes the last phase deleted: no
// token of that phase is in use any more, and no stored one names them.
func (t *Table) BeginPhase() {
	for _, h := range t.retired {
		t.rows[h] = poisonWME
		if !poisonRewind {
			t.free = append(t.free, h)
		}
	}
	t.retired = t.retired[:0]
}

// Reset empties the table and keeps its storage.
func (t *Table) Reset() {
	clear(t.rows[1:cap(t.rows)])
	t.rows = t.rows[:1]
	clear(t.byID)
	t.free, t.retired = t.free[:0], t.retired[:0]
}

// Grow makes room for n more rows without another allocation: a mirror
// about to decode a frame that defines up to n new handles grows once
// for the frame, not once per doubling. The caller bounds n.
func (t *Table) Grow(n int) { t.rows = slices.Grow(t.rows, n) }

// Define fills row h of a mirror with w, growing the table to hold it.
// The caller bounds h.
func (t *Table) Define(h int32, w *ops5.WME) {
	if n := int(h) + 1; n > len(t.rows) {
		t.rows = slices.Grow(t.rows, n-len(t.rows))[:n]
	}
	t.rows[h] = w
}
