package rete

import (
	"slices"

	"mpcrete/internal/ops5"
)

// Token is a partial instantiation: the wmes matching the positive
// condition elements compiled so far, in compiled order, as handles into
// its runtime's Table. It is held by value — in an activation, in a left
// memory entry — so a token costs nothing but its run of handles,
// carved from a processor's arena, which the collector never scans.
type Token struct {
	H []int32
}

// Same reports whether two tokens of one runtime cover exactly the same
// wmes: the same handles, since a live wme has exactly one (Table).
func (t Token) Same(o Token) bool { return slices.Equal(t.H, o.H) }

// FNV-1a parameters of the byte-wise folds below (a node id's seed, the
// network digest) and of InstChange.Hash's word fold.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashSeedOf is the FNV-1a state after a node id's eight little-endian
// bytes: where every HashKey of a node with that id (or of a bounded
// group with that home id) starts.
func hashSeedOf(id int) uint64 { return fold(fnvOffset64, id) }

// fold advances FNV-1a state h over v's eight little-endian bytes.
func fold(h uint64, v int) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(uint64(v)>>(8*i)))) * fnvPrime64
	}
	return h
}

// foldString advances h over s's length, then its bytes.
func foldString(h uint64, s string) uint64 {
	h = fold(h, len(s))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// HashKey computes the distributed-hash-table key for an activation of
// node n: the node id plus the values bound to the variables tested for
// equality at n (Section 3.1). A left token supplies the left-side
// values, resolved in tab, a right wme the right-side values (tab may
// be nil for a right key). Nodes with no equality
// tests hash on the node id alone — the cross-product pathology
// observed in Tourney.
//
// The contract hashed memories rest on: a token and a wme that pass
// n's equality tests get the same key. It holds because each tested
// value is folded by ops5.Value.FoldWords, under which values that are
// Equal fold alike (-0 and 0, 3 and 3.0). The key is a function of the
// build: two processes that hash differently would mis-join silently,
// which is why the wire handshake carries a protocol version.
//
// The hash starts from the FNV-1a state after the node id's eight
// little-endian bytes, which is the same for every activation of a node
// and so is folded once, when the node is made (Node.hashSeed). Each
// equality-tested value is then folded a word at a time, and the murmur3
// finaliser mixes the result into bits 1–63, so that the bucket — the
// key's low bits — sees every bit of every word. It is computed inline
// and never allocates.
//
// Bit 0 is left as the fold made it: the XOR of the seed's bit 0 and of
// every folded word's, which FoldWords makes equal to what byte-wise
// FNV-1a over the values made it. Under round-robin that bit is the
// owner at W=2, and the deal it makes sits below every one of 32
// re-dealt alternatives on wire-queens' bytes per firing, so it is kept
// bit for bit (EXPERIMENTS.md, "What a key costs, settled"). A fold
// that changes it re-deals ownership and is judged on wire-queens, not
// seq-queens.
//
// Nodes of a worst-case-bounded group (the bounded variant) all hash on the
// group's home node id and ignore equality tests: the lazy enumerator
// needs every collector memory of a production in one bucket, so the
// whole group is deliberately clustered on one owner (the bounded
// analogue of the paper's cluster-on-one-processor remedy).
func HashKey(tab *Table, n *Node, side Side, t Token, w *ops5.WME) uint64 {
	h := n.hashSeed
	if n.group != nil {
		return finalise(h)
	}
	for i := range n.EqTests {
		jt := &n.EqTests[i]
		var v ops5.Value
		if side == Left {
			v = jt.leftOf(tab.rows[t.H[jt.LeftPos]])
		} else {
			v = jt.rightOf(w)
		}
		h = v.FoldWords(h)
	}
	return finalise(h)
}

// finalise is murmur3's fmix64 over bits 1–63 of a key; bit 0 is h's.
func finalise(h uint64) uint64 {
	x := h ^ h>>33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x&^1 | h&1
}
