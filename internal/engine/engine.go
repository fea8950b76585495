// Package engine implements the OPS5 interpreter: the match-resolve-act
// (MRA) cycle of Section 2.1 of the paper, on top of the hashed-memory
// Rete matcher. It supports the LEX and MEA conflict-resolution
// strategies, executes right-hand-side actions, and exposes hooks for
// the hash-table activity trace recorder.
//
// The interpreter state is split in two (compiled.go): Compiled is the
// immutable half — the Rete network and production metadata, shared
// read-only by any number of sessions — and Session is the mutable half
// — working memory, token memories, conflict set, and counters. The
// single-tenant API is a shorthand for the two: engine.New compiles a
// private Compiled and opens its one session.
package engine

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// Strategy selects the conflict-resolution strategy.
type Strategy uint8

const (
	// LEX orders instantiations by recency of their time tags
	// (compared as sorted descending sequences), then by specificity.
	LEX Strategy = iota
	// MEA first compares the recency of the wme matching the first
	// condition element, then falls back to LEX ordering.
	MEA
)

// String names the strategy.
func (s Strategy) String() string {
	if s == MEA {
		return "MEA"
	}
	return "LEX"
}

// MatchApplier is the match-phase implementation the engine drives
// once per MRA cycle. The sequential rete.Matcher and the distributed
// parallel.Runtime both satisfy it, so an engine can run its match
// phase on the goroutine machine unchanged. The engine reads a result
// once, into its conflict set, then hands it back to a matcher that
// takes results back (recycler); another may lend it until its next
// Apply.
type MatchApplier interface {
	Apply(changes []rete.Change) []rete.InstChange
}

// recycler is a MatchApplier that takes read results back (rete.Matcher.Recycle).
type recycler interface {
	Recycle(result []rete.InstChange)
}

// absorb settles one match phase's result into the conflict set and
// hands it back to the matcher if the matcher takes results back.
func (e *Session) absorb(result []rete.InstChange) {
	e.conflict.absorb(result)
	if r, ok := e.matcher.(recycler); ok {
		r.Recycle(result)
	}
}

// Instantiation is a conflict-set member. It belongs to its session,
// which recycles it once it has left the set (Step, ConflictSet).
type Instantiation struct {
	Prod *ops5.Production
	// WMEs are the matched wmes by original CE index (nil for negated
	// CEs).
	WMEs []*ops5.WME
	// TimeTags are the time tags of the non-nil WMEs, sorted ascending;
	// the conflict set computes them when the instantiation enters it.
	TimeTags []int
	info     *rete.ProdInfo // Prod's compilation record
	// The conflict set's bookkeeping: the masked identity hash, the
	// position in the dense list, and the next member with that hash.
	hash uint64
	pos  int
	next *Instantiation
}

// delta names the instantiation as the matcher does, which is where its
// identity (Hash, Same) and its key are defined.
func (in *Instantiation) delta() rete.InstChange {
	return rete.InstChange{Info: in.info, WMEs: in.WMEs}
}

// Key identifies the instantiation (production name + wme IDs). The
// string is built when asked for; the engine itself never needs it.
func (in *Instantiation) Key() string {
	d := in.delta()
	return d.Key()
}

// AppendKey appends Key's text to buf.
func (in *Instantiation) AppendKey(buf []byte) []byte {
	d := in.delta()
	return d.AppendKey(buf)
}

// Session is one OPS5 interpreter instance: the mutable half of the
// Compiled/Session split. It owns the working memory, the matcher (and
// through it the token memories), the conflict set, and the firing
// counters; the network it matches over lives in the shared Compiled.
// A session is single-threaded — callers running sessions concurrently
// serialize access to each one — but independent sessions over one
// Compiled may run concurrently.
type Session struct {
	c       *Compiled
	matcher MatchApplier
	opts    SessionOptions
	// shared marks sessions opened with Compiled.NewSession, whose
	// network may be shared with other sessions and therefore must not
	// be rewritten (see dynamic.go).
	shared   bool
	wm       workingMemory
	conflict conflictSet
	// pending collects the wme changes of the next match phase; spare is
	// the previous phase's buffer, swapped back in by match. keyBuf is
	// the scratch conflict resolution's last tie-break prints two keys
	// in.
	pending []rete.Change
	spare   []rete.Change
	keyBuf  []byte
	// free holds, by layout ID, the rows of deleted wmes that an act
	// refills. Every wme the session holds comes from it, so a session
	// never holds more rows than its largest working memory. An act
	// that finds no free row makes one from made, a few rows a chunk.
	free rete.Rows
	made ops5.Carver
	// binds is the act phase's scratch for bind actions' values,
	// emptied and cleared after every firing (its values may hold
	// strings).
	binds   []ops5.Attr
	nextID  int
	timetag int
	fired   int
	halted  bool
	closed  bool
}

// New compiles a program and returns a ready single-tenant engine. The
// compiled network is private to this engine, so dynamic production
// management (excise, live addition) is permitted.
func New(prog *ops5.Program, copts CompileOptions, opts SessionOptions) (*Session, error) {
	c, err := Compile(prog, copts)
	if err != nil {
		return nil, err
	}
	e := c.NewSession(opts)
	e.shared = false
	return e, nil
}

// NewWithNetwork builds a single-tenant engine over a pre-compiled
// (possibly transformed) network for the same program.
func NewWithNetwork(prog *ops5.Program, net *rete.Network, opts SessionOptions) (*Session, error) {
	c, err := NewCompiled(prog, net)
	if err != nil {
		return nil, err
	}
	e := c.NewSession(opts)
	e.shared = false
	return e, nil
}

// Compiled returns the shared immutable half of this session.
func (e *Session) Compiled() *Compiled { return e.c }

// Network returns the compiled Rete network.
func (e *Session) Network() *rete.Network { return e.c.net }

// Matcher returns the underlying match implementation.
func (e *Session) Matcher() MatchApplier { return e.matcher }

// workingMemory is the live wmes in ascending ID order. A session mints
// IDs in increasing order, so a match phase's Add appends; its Delete
// finds the wme by binary search and leaves a tombstone, a row with a
// nil wme that keeps the ID for the search. Tombstones are compacted
// away in place once they outnumber the live wmes, or, when they are a
// quarter of the array or more, before a phase's Adds would grow it: so
// each compaction frees room for a share of the Adds it costs. The
// array grows at most once a phase, by at least the phase's Adds.
type workingMemory struct {
	rows []wmRow
	live int
}

type wmRow struct {
	id int
	w  *ops5.WME // nil: a tombstone
}

// get returns the live wme with the given ID, or nil.
func (m *workingMemory) get(id int) *ops5.WME {
	if i, ok := m.find(id); ok {
		return m.rows[i].w
	}
	return nil
}

// find returns the position of the row with the given ID, or where it
// would be, by binary search.
func (m *workingMemory) find(id int) (int, bool) {
	i, j := 0, len(m.rows)
	for i < j {
		if h := int(uint(i+j) >> 1); m.rows[h].id < id {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(m.rows) && m.rows[i].id == id
}

// apply applies a match phase's changes in order. An Add's ID is above
// every ID the memory holds.
func (m *workingMemory) apply(changes []rete.Change) {
	adds := 0
	for _, ch := range changes {
		if ch.Tag == rete.Add {
			adds++
		}
	}
	if len(m.rows)+adds > cap(m.rows) {
		if 4*(len(m.rows)-m.live) >= len(m.rows) {
			m.compact()
		}
		m.rows = slices.Grow(m.rows, adds)
	}
	for _, ch := range changes {
		if ch.Tag == rete.Add {
			m.rows = append(m.rows, wmRow{ch.WME.ID, ch.WME})
			m.live++
		} else {
			m.remove(ch.WME.ID)
		}
	}
}

// remove tombstones the live wme with the given ID.
func (m *workingMemory) remove(id int) {
	i, ok := m.find(id)
	if !ok || m.rows[i].w == nil {
		return
	}
	m.rows[i].w = nil
	m.live--
	if len(m.rows)-m.live > m.live {
		m.compact()
	}
}

// compact drops the tombstones, keeping the order.
func (m *workingMemory) compact() {
	m.rows = slices.DeleteFunc(m.rows, func(r wmRow) bool { return r.w == nil })
}

// reset empties the memory, keeping its array.
func (m *workingMemory) reset() {
	clear(m.rows)
	m.rows, m.live = m.rows[:0], 0
}

// WMCount returns the current working-memory size.
func (e *Session) WMCount() int { return e.wm.live }

// WMEs returns defensive copies of the live working-memory elements
// sorted by ID (IDs and time tags preserved) — the final-state artifact
// the differential test harness compares across match implementations.
// Because the copies share nothing with the session, a caller may hand
// them out (e.g. serialize a snapshot response) after releasing its
// session lock without racing later mutations. The copies are made by
// the chunk (ops5.Carver): a chunk of up to 32 KiB stays live while any
// of its copies does.
func (e *Session) WMEs() []*ops5.WME {
	var c ops5.Carver
	for w := range e.LiveWMEs {
		c.Expect(len(w.Slots()))
	}
	out := make([]*ops5.WME, 0, e.wm.live)
	for w := range e.LiveWMEs {
		out = append(out, c.Clone(w))
	}
	return out
}

// LiveWMEs walks the live working-memory elements in ascending ID order
// without copying them: for w := range e.LiveWMEs. What it yields is
// the session's own storage, so the walk is valid only while the caller
// holds whatever serialises the session (the server's session lock),
// and a yielded wme must be neither kept past the walk nor changed.
// Callers that need either take WMEs or Snapshot.
func (e *Session) LiveWMEs(yield func(*ops5.WME) bool) {
	for _, r := range e.wm.rows {
		if r.w != nil && !yield(r.w) {
			return
		}
	}
}

// Fired returns the number of instantiations fired so far.
func (e *Session) Fired() int { return e.fired }

// Halted reports whether a halt action has executed.
func (e *Session) Halted() bool { return e.halted }

// NextTimeTag returns the time tag the next asserted wme will receive.
func (e *Session) NextTimeTag() int { return e.timetag }

// MakeWME schedules a wme addition (an OPS5 top-level make); it takes
// effect at the next match phase. The returned wme carries its
// assigned ID and time tag, and is valid while it is live: once a match
// phase has deleted it, its row may be refilled as another wme.
func (e *Session) MakeWME(class string, pairs ...any) *ops5.WME {
	return e.insert([]*ops5.WME{ops5.NewWME(class, pairs...)})[0].WME
}

// InsertWMEs schedules pre-built wmes (e.g. parsed by ops5.ParseWMEs).
// The session keeps its own copy of each, laid out by the network's
// layout of its class so the match reads it by slot; the caller's wmes
// are not touched and may be handed to any number of sessions. The
// copies are the rows of deleted wmes where the session has them, and
// otherwise made by the chunk (ops5.Carver): a chunk of up to 32 KiB
// stays live while any of its rows does.
func (e *Session) InsertWMEs(wmes ...*ops5.WME) { e.insert(wmes) }

// Assert schedules pre-built wmes and returns the session-owned copies
// carrying their assigned IDs and time tags (the handle a Retract call
// names). It is InsertWMEs with the assignment made visible — the
// session-level API the multi-tenant server exposes — and makes its
// copies as InsertWMEs does. A returned wme is valid while it is live,
// as MakeWME's is: a caller reads the IDs at once, or copies what it
// keeps.
func (e *Session) Assert(wmes ...*ops5.WME) []*ops5.WME {
	out := make([]*ops5.WME, len(wmes))
	for i, ch := range e.insert(wmes) {
		out[i] = ch.WME
	}
	return out
}

// insert schedules the session's own copies of wmes and returns their
// Add changes, a view of pending. Free rows are taken first; the first
// pass counts what is left to make, so the second makes it by the chunk.
// The pending changes hold the batch's rows between the passes.
func (e *Session) insert(wmes []*ops5.WME) []rete.Change {
	net := e.c.net
	var c ops5.Carver
	start := len(e.pending)
	e.pending = slices.Grow(e.pending, len(wmes))
	for _, src := range wmes {
		l := net.Layout(src.Class)
		w := e.free.Reuse(l, src)
		if w == nil {
			c.Expect(l.Len())
		}
		e.pending = append(e.pending, rete.Change{Tag: rete.Add, WME: w})
	}
	batch := e.pending[start:]
	for i := range batch {
		if batch[i].WME == nil {
			batch[i].WME = c.Conform(net.Layout(wmes[i].Class), wmes[i])
		}
		e.stamp(batch[i].WME)
	}
	return batch
}

// Retract schedules deletion of the live wme with the given ID,
// reporting whether such a wme existed (live, or still pending from an
// earlier assert this cycle).
func (e *Session) Retract(id int) bool { return e.removeWME(id) }

// addWME schedules the addition of w, a row of the session's.
func (e *Session) addWME(w *ops5.WME) {
	e.pending = append(e.pending, rete.Change{Tag: rete.Add, WME: w})
	e.stamp(w)
}

// stamp gives w, a pending addition, the next ID and time tag.
func (e *Session) stamp(w *ops5.WME) {
	w.ID = e.nextID
	e.nextID++
	w.TimeTag = e.timetag
	e.timetag++
	if e.opts.Watch >= 2 {
		fmt.Fprintf(e.opts.Output, "=>wm: %d: %s\n", w.TimeTag, w)
	}
}

// removeWME schedules the deletion of the wme with the given ID and
// reports whether there is such a wme: one that is live, or was added
// earlier in this same act phase and is still pending. One walk of
// pending settles that and whether the deletion is already scheduled.
//
// A wme can be targeted twice in one act phase — e.g. a remove and a
// modify of the same CE, or two modifies whose CEs matched the same
// wme. Only the first deletion is real; a duplicate delete reaching
// the matcher would unwind join and negative-node effects twice
// (driving negative counts below zero and leaking stale
// instantiations).
func (e *Session) removeWME(id int) bool {
	w := e.wm.get(id)
	found := w != nil
	for _, ch := range e.pending {
		if ch.WME.ID != id {
			continue
		}
		if ch.Tag == rete.Delete {
			return true
		}
		w, found = ch.WME, true
	}
	if !found {
		return false
	}
	e.pending = append(e.pending, rete.Change{Tag: rete.Delete, WME: w})
	if e.opts.Watch >= 2 {
		fmt.Fprintf(e.opts.Output, "<=wm: %d: %s\n", w.TimeTag, w)
	}
	return true
}

// match runs one match phase over the pending changes, updating
// working memory and the conflict set. Once the phase is absorbed, a
// wme it deleted is read by nothing in the session: its tokens are
// gone, every member that held it got a Delete delta, and its table
// handle is freed at the matcher's next phase. So its row is retired.
func (e *Session) match() {
	changes := e.pending
	e.pending = e.spare[:0]
	e.wm.apply(changes)
	e.absorb(e.matcher.Apply(changes))
	for _, ch := range changes {
		if ch.Tag == rete.Delete {
			e.free.Retire(ch.WME)
		}
	}
	// No matcher keeps the slice past Apply, so the next phase but one
	// fills it again; cleared, it does not hold deleted wmes meanwhile.
	clear(changes)
	e.spare = changes
}

// ConflictSet returns the current instantiations sorted best-first
// under the configured strategy. The slice is the caller's; the members
// are the session's, valid until the next Step, Run, Reset or excise,
// which may recycle them. A caller copies what it keeps, as Snapshot
// does.
func (e *Session) ConflictSet() []*Instantiation {
	out := slices.Clone(e.conflict.list)
	slices.SortFunc(out, e.compare)
	return out
}

// Step runs one MRA cycle: match pending changes, resolve, fire.
// It returns the fired instantiation, or nil when the conflict set is
// empty or the engine has halted. The instantiation and the wmes it
// points at are valid until the next Step, Run or Reset: the conflict
// set then recycles the instantiation, and a wme the firing deleted
// has its row refilled. A caller copies what it keeps.
func (e *Session) Step() (*Instantiation, error) {
	e.conflict.hold(nil) // the last result is the caller's no longer
	if e.halted {
		return nil, nil
	}
	e.match()
	best := e.resolve()
	if best == nil {
		return nil, nil
	}
	e.conflict.remove(best) // refraction
	e.conflict.hold(best)
	if e.opts.Watch >= 1 {
		fmt.Fprintf(e.opts.Output, "%d. %s %s\n", e.fired+1, best.Prod.Name, tagList(best.TimeTags))
	}
	if err := e.act(best); err != nil {
		return nil, err
	}
	e.fired++
	return best, nil
}

// ErrCycleLimit is returned by Run when maxCycles fires without the
// program halting or the conflict set draining.
var ErrCycleLimit = errors.New("engine: cycle limit reached")

// Run executes MRA cycles until the conflict set is empty, a halt
// action executes, or maxCycles cycles have fired.
func (e *Session) Run(maxCycles int) (fired int, err error) {
	for i := 0; i < maxCycles; i++ {
		in, err := e.Step()
		if err != nil {
			return fired, err
		}
		if in == nil {
			return fired, nil
		}
		fired++
	}
	// Distinguish quiescence from hitting the limit: one more match.
	if e.halted {
		return fired, nil
	}
	e.match()
	if len(e.conflict.list) == 0 {
		return fired, nil
	}
	return fired, ErrCycleLimit
}

// RunCycles is Run under its session-level API name.
func (e *Session) RunCycles(maxCycles int) (int, error) { return e.Run(maxCycles) }

// resolve picks the best instantiation under the strategy.
func (e *Session) resolve() *Instantiation {
	var best *Instantiation
	for _, in := range e.conflict.list {
		if best == nil || e.compare(in, best) < 0 {
			best = in
		}
	}
	return best
}

// compare orders the conflict set: negative when a should fire in
// preference to b. The order is total.
func (e *Session) compare(a, b *Instantiation) int {
	if e.opts.Strategy == MEA {
		if c := cmp.Compare(firstCETag(b), firstCETag(a)); c != 0 {
			return c
		}
	}
	// LEX recency: compare time tags sorted descending.
	if c := compareRecency(b.TimeTags, a.TimeTags); c != 0 {
		return c
	}
	if c := cmp.Compare(b.info.Specificity, a.info.Specificity); c != 0 {
		return c
	}
	// Deterministic final tie-break: the production's name, then the
	// keys as text. That compares wme IDs lexically — pair[10 9] sorts
	// before pair[9 10] — and it is what decides which of two symmetric
	// self-join instantiations fires first, so every committed
	// transcript is made of it. It runs only on a full tie.
	if c := strings.Compare(a.Prod.Name, b.Prod.Name); c != 0 {
		return c
	}
	da, db := a.delta(), b.delta()
	e.keyBuf = da.AppendKey(e.keyBuf[:0])
	n := len(e.keyBuf)
	e.keyBuf = db.AppendKey(e.keyBuf)
	return bytes.Compare(e.keyBuf[:n], e.keyBuf[n:])
}

// tagList renders time tags in the OPS5 watch format ("3 5 7").
func tagList(tags []int) string {
	var a [64]byte
	buf := a[:0]
	for i, tg := range tags {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(tg), 10)
	}
	return string(buf)
}

// firstCETag returns the time tag of the wme matching the first
// condition element (0 when the first CE is negated).
func firstCETag(in *Instantiation) int {
	if len(in.WMEs) > 0 && in.WMEs[0] != nil {
		return in.WMEs[0].TimeTag
	}
	return 0
}

// compareRecency compares two ascending time-tag lists by the OPS5 LEX
// rule and returns 1 when a is the more recent, -1 when b is, 0 on a
// tie. The lists are compared from their largest tags down; the first
// difference decides, and when one list runs out first the longer list
// is the more recent.
func compareRecency(a, b []int) int {
	i, j := len(a)-1, len(b)-1
	for i >= 0 && j >= 0 {
		if a[i] != b[j] {
			if a[i] > b[j] {
				return 1
			}
			return -1
		}
		i--
		j--
	}
	switch {
	case i >= 0:
		return 1
	case j >= 0:
		return -1
	}
	return 0
}

// rhs is the evaluation context of one firing's right-hand side: the
// instantiation its variables read from and the values bind actions
// have given so far (the latest binding of a name wins).
type rhs struct {
	in    *Instantiation
	binds []ops5.Attr
}

func (r *rhs) lookup(v string) (ops5.Value, error) {
	for i := len(r.binds) - 1; i >= 0; i-- {
		if r.binds[i].Name == v {
			return r.binds[i].Value, nil
		}
	}
	if def, ok := r.in.info.VarDefs[v]; ok {
		w := r.in.WMEs[def.OrigCE]
		if w == nil {
			return ops5.Value{}, fmt.Errorf("engine: %s: variable <%s> bound in negated CE", r.in.Prod.Name, v)
		}
		return def.Of(w), nil
	}
	return ops5.Value{}, fmt.Errorf("engine: %s: unbound variable <%s>", r.in.Prod.Name, v)
}

func (r *rhs) eval(ex *ops5.Expr) (ops5.Value, error) {
	switch {
	case ex.Const != nil:
		return *ex.Const, nil
	case ex.Var != "":
		return r.lookup(ex.Var)
	}
	name := r.in.Prod.Name
	acc, err := r.eval(&ex.Operands[0])
	if err != nil {
		return ops5.Value{}, err
	}
	for i, op := range ex.Ops {
		rhs, err := r.eval(&ex.Operands[i+1])
		if err != nil {
			return ops5.Value{}, err
		}
		if acc.Kind != ops5.KindNum || rhs.Kind != ops5.KindNum {
			return ops5.Value{}, fmt.Errorf("engine: %s: compute on non-numeric values %v, %v", name, acc, rhs)
		}
		switch op {
		case ops5.ExprAdd:
			acc = ops5.N(acc.Num + rhs.Num)
		case ops5.ExprSub:
			acc = ops5.N(acc.Num - rhs.Num)
		case ops5.ExprMul:
			acc = ops5.N(acc.Num * rhs.Num)
		case ops5.ExprDiv:
			if rhs.Num == 0 {
				return ops5.Value{}, fmt.Errorf("engine: %s: division by zero", name)
			}
			acc = ops5.N(acc.Num / rhs.Num)
		case ops5.ExprMod:
			if rhs.Num == 0 {
				return ops5.Value{}, fmt.Errorf("engine: %s: mod by zero", name)
			}
			acc = ops5.N(math.Mod(acc.Num, rhs.Num))
		}
	}
	return acc, nil
}

// store evaluates a make or modify action's assignments into w, each
// into the slot the network resolved for it when the production was
// compiled.
func (r *rhs) store(w *ops5.WME, a *ops5.Action, st *rete.Stores) error {
	for i := range a.Assigns {
		v, err := r.eval(&a.Assigns[i].Expr)
		if err != nil {
			return err
		}
		w.SetAt(st.Layout, st.Slots[i], a.Assigns[i].Attr, v)
	}
	return nil
}

// actRowsPerChunk is the floor of the session's carver (ops5.Carver):
// an act that finds no free row takes the next row of a chunk of 8 of
// its width. Once the free lists hold a working memory's worth, acts
// rarely make a row, so a larger chunk would mostly go unused.
const actRowsPerChunk = 8

// act executes the RHS of the fired instantiation. A make builds its
// wme in place, in the class's layout, and a modify its new wme as a
// copy of the old: each into a recycled row where one is free
// (rete.Rows.Row), a row of the session's carver where none is.
func (e *Session) act(in *Instantiation) error {
	r := rhs{in: in, binds: e.binds}
	defer func() {
		clear(r.binds)
		e.binds = r.binds[:0]
	}()
	for i := range in.Prod.RHS {
		a := &in.Prod.RHS[i]
		switch a.Kind {
		case ops5.ActMake:
			st := &in.info.Stores[i]
			w := e.free.Row(&e.made, st.Layout, nil)
			if err := r.store(w, a, st); err != nil {
				return err
			}
			e.addWME(w)
		case ops5.ActRemove:
			for _, idx := range a.CEIndexes {
				if w := in.WMEs[idx-1]; w != nil {
					e.removeWME(w.ID)
				}
			}
		case ops5.ActModify:
			old := in.WMEs[a.CEIndexes[0]-1]
			if old == nil {
				return fmt.Errorf("engine: %s: modify of negated CE", in.Prod.Name)
			}
			e.removeWME(old.ID)
			w := e.free.Row(&e.made, old.Layout(), old)
			if err := r.store(w, a, &in.info.Stores[i]); err != nil {
				return err
			}
			e.addWME(w)
		case ops5.ActWrite:
			var parts []string
			for j := range a.Args {
				v, err := r.eval(&a.Args[j])
				if err != nil {
					return err
				}
				if v.Equal(ops5.Crlf) {
					parts = append(parts, "\n")
				} else {
					parts = append(parts, v.String())
				}
			}
			if _, err := io.WriteString(e.opts.Output, strings.Join(parts, " ")+"\n"); err != nil {
				return err
			}
		case ops5.ActBind:
			v, err := r.eval(&a.BindExpr)
			if err != nil {
				return err
			}
			r.binds = append(r.binds, ops5.Attr{Name: a.Var, Value: v})
		case ops5.ActExcise:
			if err := e.ExciseProduction(a.Class); err != nil {
				return fmt.Errorf("engine: %s: %w", in.Prod.Name, err)
			}
		case ops5.ActHalt:
			e.halted = true
		}
	}
	return nil
}
