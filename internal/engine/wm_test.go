package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpcrete/internal/ops5"
)

// wmModelProg eats food, newest first, one firing per food wme. The
// second production never fires (nothing is of class stop); it gives
// food a four-slot layout and wide a six-slot one, so batches carve
// rows of several widths, and note, which no production names, stays
// loose.
const wmModelProg = `
(p eat (food ^n <n>) --> (remove 1))
(p never (stop) (food ^n 0 ^a 1 ^b 2 ^c 3) (wide ^a 1 ^b 2 ^c 3 ^d 4 ^e 5 ^f 6) --> (halt))
`

// wmModel is the reference working memory: a map by ID, and the
// pending changes of the next match phase in order.
type wmModel struct {
	live    map[int]modelWME
	pending []modelChange
	nextID  int
	nextTag int
}

type modelWME struct {
	tag  int
	text string
	food bool
}

type modelChange struct {
	add bool
	id  int
	w   modelWME
}

func newWMModel() *wmModel {
	return &wmModel{live: map[int]modelWME{}, nextID: 1, nextTag: 1}
}

func (m *wmModel) assert(w *ops5.WME) int {
	id := m.nextID
	m.nextID++
	m.pending = append(m.pending, modelChange{add: true, id: id, w: modelWME{tag: m.nextTag, text: w.String(), food: w.Class == "food"}})
	m.nextTag++
	return id
}

// retract is Session.Retract: a pending delete reports true again; a
// live or pending-added wme gets one.
func (m *wmModel) retract(id int) bool {
	found := false
	if _, ok := m.live[id]; ok {
		found = true
	}
	for _, ch := range m.pending {
		if ch.id != id {
			continue
		}
		if !ch.add {
			return true
		}
		found = true
	}
	if found {
		m.pending = append(m.pending, modelChange{id: id})
	}
	return found
}

func (m *wmModel) match() {
	for _, ch := range m.pending {
		if ch.add {
			m.live[ch.id] = ch.w
		} else {
			delete(m.live, ch.id)
		}
	}
	m.pending = m.pending[:0]
}

// step is one MRA cycle: the newest live food wme fires and removes
// itself (a fired one is deleted by the next match, so none fires
// twice). It returns the fired wme's ID, 0 when nothing fires.
func (m *wmModel) step() int {
	m.match()
	best, bestTag := 0, 0
	for id, w := range m.live {
		if w.food && w.tag > bestTag {
			best, bestTag = id, w.tag
		}
	}
	if best != 0 {
		m.pending = append(m.pending, modelChange{id: best})
	}
	return best
}

// run is Session.Run: steps up to limit, then one more match to tell
// quiescence from the limit.
func (m *wmModel) run(limit int) (int, bool) {
	for i := 0; i < limit; i++ {
		if m.step() == 0 {
			return i, false
		}
	}
	m.match()
	for _, w := range m.live {
		if w.food {
			return limit, true
		}
	}
	return limit, false
}

// TestWorkingMemoryMatchesModel drives random sequences of Assert,
// MakeWME, Retract (of live, unknown and pending IDs), Step, Run and a
// pooled Reset against a map model, and after every operation checks
// WMCount, WMEs (order, IDs, time tags, contents, and that they are
// copies) and LiveWMEs (the same wmes, the session's own). Among the
// operations are an Assert and Retract of one wme in one act phase,
// and compactions of the ID-ordered array between live operations.
func TestWorkingMemoryMatchesModel(t *testing.T) {
	prog, err := ops5.ParseProgram(wmModelProg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSessionPool(c, SessionOptions{})
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkWMAgainstModel(t, pool, rand.New(rand.NewSource(seed)))
		})
	}
}

func checkWMAgainstModel(t *testing.T, pool *SessionPool, rng *rand.Rand) {
	s := pool.Get()
	defer func() { pool.Put(s) }()
	m := newWMModel()
	compactions, tombstoned := 0, false
	randWME := func() *ops5.WME {
		n := rng.Intn(1000)
		switch rng.Intn(4) {
		case 0:
			return ops5.NewWME("note", "n", n, "text", fmt.Sprint("t", n))
		case 1:
			return ops5.NewWME("wide", "a", n, "c", 3, "f", "x", "g", n%7)
		}
		return ops5.NewWME("food", "n", n, "b", n%5)
	}
	check := func(op string) {
		t.Helper()
		if s.WMCount() != len(m.live) {
			t.Fatalf("after %s: WMCount %d, model %d", op, s.WMCount(), len(m.live))
		}
		ids := make([]int, 0, len(m.live))
		for id := range m.live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		copies := s.WMEs()
		if len(copies) != len(ids) {
			t.Fatalf("after %s: WMEs has %d, model %d", op, len(copies), len(ids))
		}
		for i, w := range copies {
			want := m.live[ids[i]]
			if w.ID != ids[i] || w.TimeTag != want.tag || w.String() != want.text {
				t.Fatalf("after %s: WMEs[%d] is %d:%d %s, model %d:%d %s", op, i, w.ID, w.TimeTag, w, ids[i], want.tag, want.text)
			}
		}
		i := 0
		for w := range s.LiveWMEs {
			if i >= len(copies) || w.ID != copies[i].ID || !w.Equal(copies[i]) || w == copies[i] {
				t.Fatalf("after %s: LiveWMEs position %d yields %d: %s", op, i, w.ID, w)
			}
			i++
		}
		if i != len(copies) {
			t.Fatalf("after %s: LiveWMEs yields %d, WMEs has %d", op, i, len(copies))
		}
		if len(s.wm.rows) > s.wm.live {
			tombstoned = true
		}
	}

	// One wme asserted and retracted in one act phase never becomes live.
	w := s.Assert(ops5.NewWME("food", "n", 1))[0]
	if m.assert(ops5.NewWME("food", "n", 1)) != w.ID {
		t.Fatalf("first assert got ID %d", w.ID)
	}
	if !s.Retract(w.ID) || !m.retract(w.ID) {
		t.Fatal("retracting a pending assert failed")
	}
	if !s.Retract(w.ID) {
		t.Fatal("a second retract of a pending delete must report true")
	}
	m.retract(w.ID)
	if in, err := s.Step(); err != nil || in != nil {
		t.Fatalf("a retracted pending food fired: %v %v", in, err)
	}
	m.step()
	check("assert+retract in one phase")

	for op := 0; op < 600; op++ {
		before := len(s.wm.rows)
		var name string
		switch r := rng.Intn(100); {
		case r < 25:
			batch := make([]*ops5.WME, 1+rng.Intn(12))
			for i := range batch {
				batch[i] = randWME()
			}
			got := s.Assert(batch...)
			for i, w := range batch {
				if id := m.assert(w); got[i].ID != id {
					t.Fatalf("Assert gave ID %d, model %d", got[i].ID, id)
				}
			}
			name = fmt.Sprintf("Assert(%d)", len(batch))
		case r < 30:
			n := rng.Intn(50)
			w := s.MakeWME("food", "n", n)
			if id := m.assert(ops5.NewWME("food", "n", n)); w.ID != id {
				t.Fatalf("MakeWME gave ID %d, model %d", w.ID, id)
			}
			name = "MakeWME"
		case r < 55:
			// A live ID, a pending one, or one never or no longer live.
			id := 1 + rng.Intn(m.nextID+3)
			if ids := mapKeys(m.live); len(ids) > 0 && r < 45 {
				id = ids[rng.Intn(len(ids))]
			}
			if got, want := s.Retract(id), m.retract(id); got != want {
				t.Fatalf("Retract(%d) = %v, model %v", id, got, want)
			}
			name = fmt.Sprintf("Retract(%d)", id)
		case r < 85:
			in, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			if in != nil {
				got = in.WMEs[0].ID
			}
			if want := m.step(); got != want {
				t.Fatalf("Step fired wme %d, model %d", got, want)
			}
			name = "Step"
		case r < 98:
			limit := 1 + rng.Intn(6)
			fired, err := s.Run(limit)
			wantFired, wantLimit := m.run(limit)
			if fired != wantFired || (err == ErrCycleLimit) != wantLimit || (err != nil && err != ErrCycleLimit) {
				t.Fatalf("Run(%d) = %d, %v; model %d, limit %v", limit, fired, err, wantFired, wantLimit)
			}
			name = fmt.Sprintf("Run(%d)", limit)
		default:
			pool.Put(s)
			if s = pool.Get(); s.WMCount() != 0 || s.NextTimeTag() != 1 {
				t.Fatalf("a pooled session comes back with %d wmes, next tag %d", s.WMCount(), s.NextTimeTag())
			}
			m = newWMModel()
			before = 0
			name = "Reset"
		}
		if len(s.wm.rows) < before {
			compactions++
		}
		check(name)
	}
	if !tombstoned || compactions == 0 {
		t.Errorf("the run saw tombstones %v and %d compactions, want both", tombstoned, compactions)
	}
}

func mapKeys(m map[int]modelWME) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
