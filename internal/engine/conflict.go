package engine

import (
	"slices"

	"mpcrete/internal/alloc"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// conflictSet holds a session's instantiations. Conflict resolution
// ranges over all of them once per cycle, so they sit in a dense list;
// a delta finds the one it names through a 64-bit hash of its identity
// (rete.InstChange.Hash: production and wme IDs by condition-element
// position), chained through the instantiations themselves and settled
// by comparing identities (rete.InstChange.Same). Nothing is printed:
// a key string exists only when someone calls Instantiation.Key.
//
// The list is unordered — removal moves the last member into the gap —
// which conflict resolution cannot see, because its order is total.
//
// A member is the set's own, arrays included: add copies a delta's
// lent WMEs into the member it fills. A member a Delete delta removes,
// one an add replaces and one an excise drops is dead once the phase is
// absorbed, and goes on its production's free list, arrays and all; the
// fired one is held back until the next Step (hold). So a steady-state
// cycle makes no instantiation, and a member that Step or ConflictSet
// hands out is valid until the next Step, Run, Reset or excise.
type conflictSet struct {
	list   []*Instantiation          // list[in.pos] == in
	index  map[uint64]*Instantiation // hash & mask -> chain through next
	graves []*Instantiation          // the phase's graves (absorb)
	// mask is all ones; a test narrows it so that every chain operation
	// runs under collisions.
	mask uint64
	// free holds the retired members ready for reuse, by their
	// production's terminal node ID, chained through next; fired is the
	// member the last Step fired, retired at the next.
	free  []*Instantiation
	fired *Instantiation
	// recs, refs and tags are the never-rewound arenas a member is
	// carved from when its production's free list is empty: the record,
	// its WMEs and its TimeTags.
	recs alloc.Arena[Instantiation]
	refs alloc.Arena[*ops5.WME]
	tags alloc.Arena[int]
}

func newConflictSet() conflictSet {
	return conflictSet{index: map[uint64]*Instantiation{}, mask: ^uint64(0)}
}

// find returns the member or grave ic names, or nil; h is ic's masked
// hash.
func (cs *conflictSet) find(ic *rete.InstChange, h uint64) *Instantiation {
	for in := cs.index[h]; in != nil; in = in.next {
		if d := in.delta(); d.Same(ic) {
			return in
		}
	}
	return nil
}

// member returns a record for the instantiation ic names: a retired
// one of the same production, arrays and all, or a fresh one with
// arrays of ic's shape.
func (cs *conflictSet) member(ic *rete.InstChange) *Instantiation {
	if id := ic.Info.Node.ID; id < len(cs.free) && cs.free[id] != nil {
		in := cs.free[id]
		cs.free[id] = in.next
		return in
	}
	in := &cs.recs.Take(1)[0]
	tags := 0
	for _, w := range ic.WMEs {
		if w != nil {
			tags++
		}
	}
	in.WMEs = cs.refs.Take(len(ic.WMEs))
	in.TimeTags = cs.tags.Take(tags)
	return in
}

// A grave's pos: chained in the index, or cancelled by an Add.
const buried, cancelled = -1, -2

// absorb applies a match phase's deltas, from whichever matcher, to the
// set in the order they were made; it reads every lent WMEs array for
// the last time. One rule: a Delete that finds no member (it fired, and
// refraction took it out) leaves a grave, a record chained in the index
// outside the list, and the phase's next Add of that instantiation
// cancels against it instead of entering the set. Per instantiation a
// phase's deltas alternate, the first saying whether the matcher had it
// (parallel.Driver.Cycle), so the result is the phase's net change.
func (cs *conflictSet) absorb(deltas []rete.InstChange) {
	for i := range deltas {
		if ic := &deltas[i]; ic.Tag == rete.Add {
			cs.add(ic)
		} else if !cs.delete(ic) {
			g := cs.fill(ic, ic.Hash()&cs.mask)
			g.pos = buried
			cs.graves = append(cs.graves, g)
		}
	}
	for _, g := range cs.graves {
		if g.pos == buried {
			cs.unlink(g)
		}
		cs.retire(g)
	}
	clear(cs.graves)
	cs.graves = cs.graves[:0]
}

// add puts the instantiation ic names into the set. One already there
// under the same identity is replaced, as assigning to a map key would;
// a grave is cancelled instead. The member is filled from ic — its wmes
// copied into the member's own array, its time tags, what LEX and MEA
// compare, computed from them — so the set keeps nothing the delta
// lent. This is the one place recency is computed: a delta does not
// carry it, so no matcher, worker or wire can disagree with the wmes
// about it.
func (cs *conflictSet) add(ic *rete.InstChange) {
	h := ic.Hash() & cs.mask
	if old := cs.find(ic, h); old != nil {
		if old.pos == buried {
			cs.unlink(old)
			old.pos = cancelled
			return
		}
		cs.remove(old)
		cs.retire(old)
	}
	in := cs.fill(ic, h)
	tags := in.TimeTags[:0]
	for _, w := range ic.WMEs {
		if w != nil {
			tags = append(tags, w.TimeTag)
		}
	}
	slices.Sort(tags)
	in.TimeTags, in.pos = tags, len(cs.list)
	cs.list = append(cs.list, in)
}

// fill returns a record of ic's instantiation chained under h.
func (cs *conflictSet) fill(ic *rete.InstChange, h uint64) *Instantiation {
	in := cs.member(ic)
	copy(in.WMEs, ic.WMEs)
	in.Prod, in.info = ic.Info.Prod, ic.Info
	in.hash, in.next = h, cs.index[h]
	cs.index[h] = in
	return in
}

// delete takes the instantiation ic names out of the set and retires
// it, reporting whether it was a member.
func (cs *conflictSet) delete(ic *rete.InstChange) bool {
	in := cs.find(ic, ic.Hash()&cs.mask)
	if in == nil || in.pos < 0 {
		return false
	}
	cs.remove(in)
	cs.retire(in)
	return true
}

// unlink takes a record out of its index chain.
func (cs *conflictSet) unlink(in *Instantiation) {
	if head := cs.index[in.hash]; head != in {
		for head.next != in {
			head = head.next
		}
		head.next = in.next
	} else if in.next != nil {
		cs.index[in.hash] = in.next
	} else {
		delete(cs.index, in.hash)
	}
	in.next = nil
}

// remove takes a member out of the set; the caller retires it, at once
// or, for the fired member, at the next Step (hold).
func (cs *conflictSet) remove(in *Instantiation) {
	cs.unlink(in)
	last := len(cs.list) - 1
	moved := cs.list[last]
	cs.list[in.pos], moved.pos = moved, in.pos
	cs.list[last] = nil
	cs.list = cs.list[:last]
}

// retire puts a member no longer in the set on its production's free
// list. Under the poison (alloc.Poison) it is quarantined instead: its
// production reads as nil, and it is never reused.
func (cs *conflictSet) retire(in *Instantiation) {
	if alloc.Poisoned() {
		in.Prod, in.info = nil, nil
		return
	}
	id := in.info.Node.ID
	if id >= len(cs.free) {
		cs.free = slices.Grow(cs.free, id+1-len(cs.free))[:id+1]
	}
	in.next, cs.free[id] = cs.free[id], in
}

// hold retires the member the last Step fired, which its caller is
// done with, and holds in, just removed, in its place (nil for none).
func (cs *conflictSet) hold(in *Instantiation) {
	if cs.fired != nil {
		cs.retire(cs.fired)
	}
	cs.fired = in
}

// removeProduction takes every instantiation of the named production
// out of the set. It walks backwards because remove fills a gap from
// the end.
func (cs *conflictSet) removeProduction(name string) {
	for i := len(cs.list) - 1; i >= 0; i-- {
		if in := cs.list[i]; in.Prod.Name == name {
			cs.remove(in)
			cs.retire(in)
		}
	}
}

// reset empties the set, keeping the list's and the index's storage,
// and its members for the next tenant: each is retired, and every
// retired one is scrubbed of the wmes it held, so a pooled session pins
// none of its last tenant's.
func (cs *conflictSet) reset() {
	for _, in := range cs.list {
		cs.retire(in)
	}
	cs.hold(nil)
	clear(cs.list)
	cs.list = cs.list[:0]
	clear(cs.index)
	for _, in := range cs.free {
		for ; in != nil; in = in.next {
			clear(in.WMEs)
		}
	}
}
