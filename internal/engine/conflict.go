package engine

import (
	"slices"

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
	list  []*Instantiation          // list[in.pos] == in
	index map[uint64]*Instantiation // hash & mask -> chain through next
	// mask is all ones; a test narrows it so that every chain operation
	// runs under collisions.
	mask uint64
	// free holds the retired members ready for reuse, by their
	// production's terminal node ID, chained through next; fired is the
	// member the last Step fired, retired at the next.
	free  []*Instantiation
	fired *Instantiation
	// chunk, refs and tags are the unconsumed tails of the slabs a member
	// is carved from when its production's free list is empty — the
	// record, its WMEs and its TimeTags. A slab hands no region out twice:
	// chunks run 8, 16, 32, 32, ... records and 32, 64, 128, 256, 256,
	// ... references or tags (2 KB).
	chunk    []Instantiation
	chunkLen int
	refs     []*ops5.WME
	refsLen  int
	tags     []int
	tagsLen  int
}

func newConflictSet() conflictSet {
	return conflictSet{index: map[uint64]*Instantiation{}, mask: ^uint64(0)}
}

// find returns the instantiation ic names, or nil; h is ic's masked
// hash.
func (cs *conflictSet) find(ic *rete.InstChange, h uint64) *Instantiation {
	for in := cs.index[h]; in != nil; in = in.next {
		if d := in.delta(); d.Same(ic) {
			return in
		}
	}
	return nil
}

// carve cuts an n-element region from the tail *s of a never-reused
// slab whose last chunk was *last long.
func carve[T any](s *[]T, last *int, n int) []T {
	if n > len(*s) {
		*last = min(max(2**last, 32), 256)
		*s = make([]T, max(*last, n))
	}
	r := (*s)[:n:n]
	*s = (*s)[n:]
	return r
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
	if len(cs.chunk) == 0 {
		cs.chunkLen = min(max(2*cs.chunkLen, 8), 32)
		cs.chunk = make([]Instantiation, cs.chunkLen)
	}
	in := &cs.chunk[0]
	cs.chunk = cs.chunk[1:]
	tags := 0
	for _, w := range ic.WMEs {
		if w != nil {
			tags++
		}
	}
	in.WMEs = carve(&cs.refs, &cs.refsLen, len(ic.WMEs))
	in.TimeTags = carve(&cs.tags, &cs.tagsLen, tags)
	return in
}

// add puts the instantiation ic names into the set. One already there
// under the same identity is replaced, as assigning to a map key would.
// The member is filled from ic — its wmes copied into the member's own
// array, its time tags, what LEX and MEA compare, computed from them —
// so the set keeps nothing the delta lent. This is the one place
// recency is computed: a delta does not carry it, so no matcher, worker
// or wire can disagree with the wmes about it.
func (cs *conflictSet) add(ic *rete.InstChange) {
	h := ic.Hash() & cs.mask
	if old := cs.find(ic, h); old != nil {
		cs.remove(old)
		cs.retire(old)
	}
	in := cs.member(ic)
	copy(in.WMEs, ic.WMEs)
	tags := in.TimeTags[:0]
	for _, w := range ic.WMEs {
		if w != nil {
			tags = append(tags, w.TimeTag)
		}
	}
	slices.Sort(tags)
	in.TimeTags, in.Prod, in.info = tags, ic.Info.Prod, ic.Info
	in.hash, in.pos, in.next = h, len(cs.list), cs.index[h]
	cs.index[h] = in
	cs.list = append(cs.list, in)
}

// delete takes the instantiation ic names out of the set, if it is
// there, and retires it.
func (cs *conflictSet) delete(ic *rete.InstChange) {
	if in := cs.find(ic, ic.Hash()&cs.mask); in != nil {
		cs.remove(in)
		cs.retire(in)
	}
}

// remove takes a member out of the set; the caller retires it, at once
// or, for the fired member, at the next Step (hold).
func (cs *conflictSet) remove(in *Instantiation) {
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
	last := len(cs.list) - 1
	moved := cs.list[last]
	cs.list[in.pos], moved.pos = moved, in.pos
	cs.list[last] = nil
	cs.list = cs.list[:last]
}

// retire puts a member no longer in the set on its production's free
// list. Under the poison (rete.Retire) it is quarantined instead: its
// production reads as nil, and it is never reused.
func (cs *conflictSet) retire(in *Instantiation) {
	if !rete.Retire() {
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
