// Package trace defines the hash-table activity trace that drives the
// MPC simulator — the Fig 4-1 artifact of the paper. A trace records,
// per MRA cycle, the forest of two-input node activations: the roots
// are the activations generated directly from the cycle's wme changes
// by the constant tests, and each activation lists the successor
// activations its token comparisons generated.
//
// Traces are produced by the Recorder (hooked into the sequential Rete
// matcher as a rete.Listener), by the calibrated generators in the
// workloads package, or by decoding the text format.
package trace

import (
	"fmt"

	"mpcrete/internal/rete"
)

// Side and tag aliases, so trace consumers (the simulator and the
// workload generators) need not depend on the rete package directly.
type (
	// Side aliases rete.Side.
	Side = rete.Side
	// Tag aliases rete.Tag.
	Tag = rete.Tag
)

const (
	LeftSide  = rete.Left
	RightSide = rete.Right
	AddTag    = rete.Add
	DeleteTag = rete.Delete
)

// Activation is one two-input (or dummy) node activation.
type Activation struct {
	// Node is the Rete node id; together with the equality-test values
	// it determines the hash bucket.
	Node int
	// Side says whether the token entered the node's left or right
	// memory. Right activations are generated locally on every
	// processor (from the broadcast wmes); left activations travel as
	// messages.
	Side rete.Side
	// Tag is + (add) or - (delete).
	Tag rete.Tag
	// Bucket is the hash-table index of the left/right bucket pair the
	// activation touches.
	Bucket int
	// Children are the successor activations generated when the token
	// was compared against the opposite memory.
	Children []*Activation
	// Insts is the number of production instantiations this activation
	// generated directly (successor tokens that reached production
	// nodes).
	Insts int
}

// Successors returns the total number of tokens this activation
// generated: child activations plus instantiations.
func (a *Activation) Successors() int { return len(a.Children) + a.Insts }

// Cycle is the activity of one MRA cycle.
type Cycle struct {
	// Changes is the number of wme changes broadcast at cycle start.
	Changes int
	// Roots are the activations generated directly by the constant
	// tests from those changes.
	Roots []*Activation
	// RootInsts counts instantiations produced directly by constant
	// tests (single-CE productions).
	RootInsts int
}

// Walk visits every activation in the cycle in depth-first preorder.
func (c *Cycle) Walk(visit func(*Activation)) {
	var rec func(a *Activation)
	rec = func(a *Activation) {
		visit(a)
		for _, ch := range a.Children {
			rec(ch)
		}
	}
	for _, r := range c.Roots {
		rec(r)
	}
}

// Activations counts all activations in the cycle.
func (c *Cycle) Activations() int {
	n := 0
	c.Walk(func(*Activation) { n++ })
	return n
}

// Trace is a recorded section of production-system execution.
type Trace struct {
	// Name labels the section (e.g. "rubik").
	Name string
	// NBuckets is the hash-table size the bucket indices refer to.
	NBuckets int
	Cycles   []*Cycle
}

// Validate checks structural invariants: bucket indices within range
// and non-negative counts. It reports the first faulty activation in
// depth-first preorder; of an activation with two faults it reports
// the negative node id or inst count.
func (t *Trace) Validate() error {
	if t.NBuckets <= 0 {
		return fmt.Errorf("trace %s: NBuckets = %d", t.Name, t.NBuckets)
	}
	for ci, c := range t.Cycles {
		if c.Changes < 0 || c.RootInsts < 0 {
			return fmt.Errorf("trace %s: cycle %d has negative counts", t.Name, ci)
		}
		for _, r := range c.Roots {
			if err := t.validate(ci, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// validate checks a and its descendants, in preorder, for Validate.
func (t *Trace) validate(ci int, a *Activation) error {
	if a.Insts < 0 || a.Node < 0 {
		return fmt.Errorf("trace %s: cycle %d: negative node id or inst count", t.Name, ci)
	}
	if a.Bucket < 0 || a.Bucket >= t.NBuckets {
		return fmt.Errorf("trace %s: cycle %d: bucket %d out of range [0,%d)", t.Name, ci, a.Bucket, t.NBuckets)
	}
	for _, ch := range a.Children {
		if err := t.validate(ci, ch); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes a trace in the terms of Table 5-2.
type Stats struct {
	Cycles           int
	LeftActivations  int
	RightActivations int
	Total            int
	Instantiations   int
	MaxSuccessors    int // largest fan-out of any single activation
}

// Stats computes activation counts. Dummy-node activations travel like
// left tokens and are counted as left activations.
func (t *Trace) Stats() Stats {
	var s Stats
	s.Cycles = len(t.Cycles)
	for _, c := range t.Cycles {
		s.Instantiations += c.RootInsts
		c.Walk(func(a *Activation) {
			if a.Side == rete.Left {
				s.LeftActivations++
			} else {
				s.RightActivations++
			}
			s.Instantiations += a.Insts
			if n := a.Successors(); n > s.MaxSuccessors {
				s.MaxSuccessors = n
			}
		})
	}
	s.Total = s.LeftActivations + s.RightActivations
	return s
}

// BucketLoad returns, per cycle, the number of activations per bucket
// index — the raw data behind the Fig 5-5 distribution analysis and
// the greedy scheduler. If leftOnly is set, only left activations are
// counted (as in Fig 5-5).
func (t *Trace) BucketLoad(leftOnly bool) []map[int]int {
	out := make([]map[int]int, len(t.Cycles))
	for i, c := range t.Cycles {
		load := map[int]int{}
		c.Walk(func(a *Activation) {
			if leftOnly && a.Side != rete.Left {
				return
			}
			load[a.Bucket]++
		})
		out[i] = load
	}
	return out
}
