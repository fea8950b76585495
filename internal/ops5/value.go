// Package ops5 implements the subset of the OPS5 production-system
// language used throughout this repository: typed values, working-memory
// elements (wmes), condition elements, productions, right-hand-side
// actions, and a parser for the textual OPS5 syntax.
//
// The subset matches Section 2.1 of Tambe, Acharya & Gupta
// (CMU-CS-89-129): constant tests, equality (variable) tests, predicate
// tests (=, <>, <, <=, >, >=, <=>), conjunctive tests {...}, disjunctive
// tests <<...>>, negated condition elements, and the make / remove /
// modify / write / bind / halt actions.
package ops5

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Kind discriminates the two OPS5 scalar types.
type Kind uint8

const (
	// KindNil is the zero Value; it compares unequal to every symbol
	// and number and is what a wme reports for an absent attribute.
	KindNil Kind = iota
	// KindSym is a symbolic atom.
	KindSym
	// KindNum is a numeric atom. OPS5 does not distinguish integer and
	// floating-point atoms for matching purposes, so a single float64
	// representation is used.
	KindNum
)

// Value is an OPS5 scalar: a symbol, a number, or nil (absent).
// The zero value is the nil value.
type Value struct {
	Kind Kind
	Sym  string
	Num  float64
}

// S returns a symbol value.
func S(s string) Value { return Value{Kind: KindSym, Sym: s} }

// Crlf is the distinguished symbol produced by the (crlf) form in
// write actions; the engine prints it as a newline.
var Crlf = S("(crlf)")

// N returns a numeric value.
func N(f float64) Value { return Value{Kind: KindNum, Num: f} }

// Nil reports whether v is the nil (absent) value.
func (v Value) Nil() bool { return v.Kind == KindNil }

// Equal reports OPS5 equality: same kind and same atom.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KindSym:
		return v.Sym == w.Sym
	case KindNum:
		return v.Num == w.Num
	default:
		return true // both nil
	}
}

// SameType implements the OPS5 <=> predicate: both symbolic or both
// numeric. Nil values have no type and satisfy <=> with nothing.
func (v Value) SameType(w Value) bool {
	return v.Kind != KindNil && v.Kind == w.Kind
}

// Compare orders two values. Numeric comparison applies when both are
// numbers; symbols compare lexicographically; otherwise ok is false
// (OPS5 relational predicates fail on mixed or nil operands).
func (v Value) Compare(w Value) (cmp int, ok bool) {
	switch {
	case v.Kind == KindNum && w.Kind == KindNum:
		switch {
		case v.Num < w.Num:
			return -1, true
		case v.Num > w.Num:
			return 1, true
		}
		return 0, true
	case v.Kind == KindSym && w.Kind == KindSym:
		return strings.Compare(v.Sym, w.Sym), true
	}
	return 0, false
}

// String renders the value in OPS5 source syntax.
func (v Value) String() string {
	switch v.Kind {
	case KindSym:
		return v.Sym
	case KindNum:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	default:
		return "nil"
	}
}

// Key returns a canonical text encoding of the value, distinct across
// kinds. It keys compile-time structures (alpha-pattern sharing); the
// match-time bucket hash is FoldWords, which folds words, not text.
func (v Value) Key() string {
	switch v.Kind {
	case KindSym:
		return "s:" + v.Sym
	case KindNum:
		return "n:" + strconv.FormatFloat(v.Num, 'b', -1, 64)
	default:
		return "_"
	}
}

// foldPrime is the 64-bit FNV prime, the multiplier of every FoldWords
// round.
const foldPrime = 1099511628211

// FoldWords folds the value into a running hash a word at a time, one
// (h ^ w) * foldPrime round per 64-bit word, without allocating. The
// contract is the one hashed memories rest on: values that are Equal
// fold alike, and values of different kinds fold different words.
//
// A number folds as one word: the eight bytes of its IEEE-754 bit
// pattern, -0 taken as +0 because Equal says they are the same number,
// through the splitmix64 finaliser, so that small integers — whose
// float64 patterns differ only in their top bytes — differ in every
// bit. A symbol folds as a tag word holding its length, then its bytes
// in little-endian 8-byte chunks, the last one zero-padded. Nil folds
// as the constant '_'.
//
// The multiply leaves bit 0 alone, so bit 0 of the result is bit 0 of
// h XOR that of every folded word, and each word's bit 0 is set to what
// byte-wise FNV-1a over the old spelling contributed there: for a
// number or a chunk, the parity of its bytes' low bits; for a symbol's
// tag and for nil, 1 (the odd 's' of "s:" and '_'). Under round-robin
// at two workers that bit is a key's owner, and it is kept because the
// deal it makes is a good one (EXPERIMENTS.md, "What a key costs,
// settled").
func (v Value) FoldWords(h uint64) uint64 {
	switch v.Kind {
	case KindSym:
		s := v.Sym
		h = (h ^ (uint64(len(s))<<8 | 's')) * foldPrime
		for ; len(s) >= 8; s = s[8:] {
			c := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
				uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
			h = (h ^ lowParity(c)) * foldPrime
		}
		if len(s) > 0 {
			var c uint64
			for i := len(s) - 1; i >= 0; i-- {
				c = c<<8 | uint64(s[i])
			}
			h = (h ^ lowParity(c)) * foldPrime
		}
	case KindNum:
		h = (h ^ lowParity(numHashBits(v.Num))) * foldPrime
	default:
		h = (h ^ '_') * foldPrime
	}
	return h
}

// lowParity returns w with bit 0 replaced by the parity of its eight
// bytes' low bits.
func lowParity(w uint64) uint64 {
	return w&^1 | uint64(bits.OnesCount64(w&0x0101010101010101)&1)
}

// numHashBits is the word FoldWords folds for a number, before its
// bit 0 is set: -0 normalised to +0, then the splitmix64 finaliser.
func numHashBits(f float64) uint64 {
	if f == 0 {
		f = 0 // -0 == 0 is true; the assignment drops the sign
	}
	x := math.Float64bits(f)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PredOp enumerates the OPS5 predicate operators.
type PredOp uint8

const (
	OpEq       PredOp = iota // =   (also implicit for bare constants/variables)
	OpNe                     // <>
	OpLt                     // <
	OpLe                     // <=
	OpGt                     // >
	OpGe                     // >=
	OpSameType               // <=>
)

var predNames = [...]string{"=", "<>", "<", "<=", ">", ">=", "<=>"}

// String returns the OPS5 spelling of the operator.
func (op PredOp) String() string {
	if int(op) < len(predNames) {
		return predNames[op]
	}
	return fmt.Sprintf("PredOp(%d)", uint8(op))
}

// Apply evaluates `a op b`. Relational operators require comparable
// (same-kind, non-nil) operands and are false otherwise, matching OPS5.
func (op PredOp) Apply(a, b Value) bool {
	switch op {
	case OpEq:
		return a.Equal(b)
	case OpNe:
		return !a.Equal(b)
	case OpSameType:
		return a.SameType(b)
	}
	cmp, ok := a.Compare(b)
	if !ok {
		return false
	}
	switch op {
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}
