// Package rete implements the Rete match algorithm of Forgy (1982) in
// the hashed-memory formulation used by Tambe, Acharya & Gupta
// (CMU-CS-89-129): the left and right memories of all two-input nodes
// live in two global hash tables, and a node activation touches exactly
// one left/right bucket pair.
//
// The package provides the network compiler (with node sharing), a
// sequential matcher that doubles as the trace producer for the MPC
// simulator, and the network-level transformations analysed in the
// paper: unsharing and copy-and-constraint (dummy nodes are a trace
// transformation, trace.SplitFanout).
package rete

import (
	"fmt"
	"sort"
	"strings"

	"mpcrete/internal/ops5"
)

// Side identifies which input of a two-input node an activation is for.
type Side uint8

const (
	// Left is the input fed by the preceding beta-level node (or, for
	// the first two-input node of a production, by the first condition
	// element's constant tests).
	Left Side = iota
	// Right is the input fed by a condition element's constant tests.
	Right
)

// String returns "L" or "R".
func (s Side) String() string {
	if s == Left {
		return "L"
	}
	return "R"
}

// Tag marks an activation as an addition or a deletion, the +/- of the
// paper's tokens.
type Tag uint8

const (
	Add Tag = iota
	Delete
)

// String returns "+" or "-".
func (t Tag) String() string {
	if t == Add {
		return "+"
	}
	return "-"
}

// ConstTest is a single constant-test-node check applied to a wme
// while it filters down the alpha part of the network. Exactly one of
// Value, Disj, or OtherAttr is meaningful:
//
//   - Value: wme.Get(Attr) Op Value
//   - Disj: wme.Get(Attr) equals one of Disj
//   - OtherAttr: wme.Get(Attr) Op wme.Get(OtherAttr)  (intra-CE
//     variable consistency, e.g. (cell ^row <r> ^col <r>))
//
// The attributes are read through ops5.WME.At: layout is the layout of
// the pattern's class and slot, otherSlot where it keeps Attr and
// OtherAttr, resolved when the pattern enters a network (a test built
// by hand has no layout and reads by name).
type ConstTest struct {
	Attr      string
	Op        ops5.PredOp
	Value     ops5.Value
	Disj      []ops5.Value
	OtherAttr string
	isOther   bool

	layout          *ops5.Layout
	slot, otherSlot int
}

// Eval applies the test to a wme.
func (ct *ConstTest) Eval(w *ops5.WME) bool {
	v := w.At(ct.layout, ct.slot, ct.Attr)
	if len(ct.Disj) > 0 {
		for _, d := range ct.Disj {
			if v.Equal(d) {
				return true
			}
		}
		return false
	}
	if ct.isOther {
		return ct.Op.Apply(v, w.At(ct.layout, ct.otherSlot, ct.OtherAttr))
	}
	return ct.Op.Apply(v, ct.Value)
}

// resolve points the test at l, the layout of its pattern's class.
func (ct *ConstTest) resolve(l *ops5.Layout) {
	ct.layout, ct.slot = l, l.Add(ct.Attr)
	if ct.isOther {
		ct.otherSlot = l.Add(ct.OtherAttr)
	}
}

// key returns a canonical encoding used for alpha-pattern sharing.
func (ct *ConstTest) key() string {
	if len(ct.Disj) > 0 {
		parts := make([]string, len(ct.Disj))
		for i, d := range ct.Disj {
			parts[i] = d.Key()
		}
		sort.Strings(parts)
		return fmt.Sprintf("^%s<<%s>>", ct.Attr, strings.Join(parts, ","))
	}
	if ct.isOther {
		return fmt.Sprintf("^%s%s@%s", ct.Attr, ct.Op, ct.OtherAttr)
	}
	return fmt.Sprintf("^%s%s%s", ct.Attr, ct.Op, ct.Value.Key())
}

// AlphaRoute records one destination of an alpha pattern's output: wmes
// passing the pattern become Side activations of Node.
type AlphaRoute struct {
	Node *Node
	Side Side
}

// AlphaPattern is the compiled alpha part of one (or, with sharing,
// several) condition elements: a class filter plus constant tests.
type AlphaPattern struct {
	ID     int
	Class  string
	Tests  []ConstTest
	Routes []AlphaRoute

	shareKey string // key(), computed once where sharing compares it
}

// Matches reports whether the wme passes the pattern's class filter and
// every constant test.
func (a *AlphaPattern) Matches(w *ops5.WME) bool {
	if w.Class != a.Class {
		return false
	}
	for i := range a.Tests {
		if !a.Tests[i].Eval(w) {
			return false
		}
	}
	return true
}

func (a *AlphaPattern) key() string {
	keys := make([]string, len(a.Tests))
	for i := range a.Tests {
		keys[i] = a.Tests[i].key()
	}
	sort.Strings(keys)
	return a.Class + "|" + strings.Join(keys, "|")
}

// buildAlphaTests derives the constant tests and the intra-CE variable
// consistency tests for a condition element. firstAttr records, for
// variables whose defining occurrence is inside this CE, the attribute
// bound first (used both for intra-CE tests and by the caller to
// register binding sites).
func buildAlphaTests(ce *ops5.CE, boundOutside func(string) bool) (tests []ConstTest, firstAttr map[string]string) {
	firstAttr = map[string]string{}
	for _, at := range ce.Tests {
		for _, term := range at.Terms {
			switch {
			case len(term.Disj) > 0:
				tests = append(tests, ConstTest{Attr: at.Attr, Op: ops5.OpEq, Disj: term.Disj})
			case term.Const != nil:
				tests = append(tests, ConstTest{Attr: at.Attr, Op: term.Op, Value: *term.Const})
			case term.Var != "":
				if boundOutside(term.Var) {
					continue // becomes a two-input node test
				}
				if prev, ok := firstAttr[term.Var]; ok {
					// Subsequent occurrence within the same CE: an
					// intra-element consistency test.
					tests = append(tests, ConstTest{Attr: at.Attr, Op: term.Op, OtherAttr: prev, isOther: true})
				} else if term.Op == ops5.OpEq {
					firstAttr[term.Var] = at.Attr
				}
				// A non-equality predicate on an unbound variable with
				// no prior occurrence constrains nothing (OPS5 treats
				// it as always true); it is dropped.
			}
		}
	}
	return tests, firstAttr
}
