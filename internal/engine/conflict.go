package engine

import (
	"slices"

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
type conflictSet struct {
	list  []*Instantiation          // list[in.pos] == in
	index map[uint64]*Instantiation // hash & mask -> chain through next
	// mask is all ones; a test narrows it so that every chain operation
	// runs under collisions.
	mask uint64
	// chunk is the unconsumed tail of the slab instantiations are carved
	// from, never reused: chunks run 8, 16, 32, 32, ... so a session that
	// fires twenty times allocates three.
	chunk    []Instantiation
	chunkLen int
	// tags is the unconsumed tail of the slab the members' TimeTags are
	// carved from, never reused either: chunks run 32, 64, 128, 256, 256,
	// ... tags (2 KB).
	tags    []int
	tagsLen int
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

// recency returns the time tags of ic's matched wmes, ascending: what
// LEX and MEA compare. This is the one place they are computed — a delta
// does not carry them, so no matcher, worker or wire can disagree with
// the wmes about them — and only for a delta that enters the set.
func (cs *conflictSet) recency(ic *rete.InstChange) []int {
	n := 0
	for _, w := range ic.WMEs {
		if w != nil {
			n++
		}
	}
	if n > len(cs.tags) {
		cs.tagsLen = min(max(2*cs.tagsLen, 32), 256)
		cs.tags = make([]int, max(cs.tagsLen, n))
	}
	tags := cs.tags[:0:n]
	cs.tags = cs.tags[n:]
	for _, w := range ic.WMEs {
		if w != nil {
			tags = append(tags, w.TimeTag)
		}
	}
	slices.Sort(tags)
	return tags
}

// add puts the instantiation ic names into the set. One already there
// under the same identity is replaced, as assigning to a map key would.
// The set keeps ic.WMEs, which must be an Add delta's: the member's for
// good.
func (cs *conflictSet) add(ic *rete.InstChange) {
	h := ic.Hash() & cs.mask
	if old := cs.find(ic, h); old != nil {
		cs.remove(old)
	}
	if len(cs.chunk) == 0 {
		cs.chunkLen = min(max(2*cs.chunkLen, 8), 32)
		cs.chunk = make([]Instantiation, cs.chunkLen)
	}
	in := &cs.chunk[0]
	cs.chunk = cs.chunk[1:]
	*in = Instantiation{
		Prod:     ic.Info.Prod,
		WMEs:     ic.WMEs,
		TimeTags: cs.recency(ic),
		info:     ic.Info,
		hash:     h,
		pos:      len(cs.list),
		next:     cs.index[h],
	}
	cs.index[h] = in
	cs.list = append(cs.list, in)
}

// delete takes the instantiation ic names out of the set, if it is
// there.
func (cs *conflictSet) delete(ic *rete.InstChange) {
	if in := cs.find(ic, ic.Hash()&cs.mask); in != nil {
		cs.remove(in)
	}
}

// remove takes a member out of the set.
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

// removeProduction takes every instantiation of the named production
// out of the set. It walks backwards because remove fills a gap from
// the end.
func (cs *conflictSet) removeProduction(name string) {
	for i := len(cs.list) - 1; i >= 0; i-- {
		if in := cs.list[i]; in.Prod.Name == name {
			cs.remove(in)
		}
	}
}

// reset empties the set, keeping the list's and the index's storage.
func (cs *conflictSet) reset() {
	clear(cs.list)
	cs.list = cs.list[:0]
	clear(cs.index)
}
