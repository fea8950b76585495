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
// match-time bucket hash is HashFNV, which folds different bytes.
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

const fnvPrime64 = 1099511628211

// HashFNV folds the value into a running FNV-1a hash, byte by byte and
// without allocating. The contract is the one hashed memories rest on:
// values that are Equal fold alike, and values of different kinds fold
// different bytes (the symbol "3" and the number 3 carry different
// prefixes).
//
// A symbol folds as 's' ':' and its bytes. A number folds as 'n' ':'
// and the eight little-endian bytes of its IEEE-754 bit pattern, after
// two adjustments. -0 is folded as +0, because Equal says they are the
// same number. And the bits are passed through the splitmix64
// finaliser first: FNV-1a's low k output bits depend only on the low k
// bits of each input byte, a small integer as a float64 has six zero
// low bytes and an even seventh, and a bucket is the key's low bits —
// unmixed, nearly every numeric key of a node would land in the same
// few buckets, and on the same worker of a round-robin partition.
func (v Value) HashFNV(h uint64) uint64 {
	switch v.Kind {
	case KindSym:
		h = (h ^ 's') * fnvPrime64
		h = (h ^ ':') * fnvPrime64
		for i := 0; i < len(v.Sym); i++ {
			h = (h ^ uint64(v.Sym[i])) * fnvPrime64
		}
	case KindNum:
		h = (h ^ 'n') * fnvPrime64
		h = (h ^ ':') * fnvPrime64
		x := numHashBits(v.Num)
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(x>>(8*i)))) * fnvPrime64
		}
	default:
		h = (h ^ '_') * fnvPrime64
	}
	return h
}

// numHashBits is the bit pattern HashFNV folds for a number: -0
// normalised to +0, then the splitmix64 finaliser.
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
