package trace

import (
	"mpcrete/internal/rete"
)

// Recorder implements rete.Listener and accumulates a Trace from a
// live sequential match run — the role the instrumented uniprocessor
// OPS5 implementation played for the paper's simulator.
type Recorder struct {
	trace   *Trace
	current *Cycle
	bySeq   map[int]*Activation
}

var _ rete.Listener = (*Recorder)(nil)

// NewRecorder creates a recorder; nbuckets must match the matcher's
// MatcherOptions.NBuckets so recorded bucket indices are meaningful.
func NewRecorder(name string, nbuckets int) *Recorder {
	if nbuckets == 0 {
		nbuckets = rete.DefaultNBuckets
	}
	return &Recorder{trace: &Trace{Name: name, NBuckets: nbuckets}}
}

// Trace returns the accumulated trace. It remains owned by the
// recorder until the run completes.
func (r *Recorder) Trace() *Trace { return r.trace }

// BeginCycle starts a new cycle record.
func (r *Recorder) BeginCycle(cycle int, changes []rete.Change) {
	r.current = &Cycle{Changes: len(changes)}
	r.bySeq = make(map[int]*Activation)
}

// Activation records one node activation, linking it under its parent.
func (r *Recorder) Activation(ev rete.Event) {
	a := &Activation{
		Node:   ev.Node.ID,
		Side:   ev.Side,
		Tag:    ev.Tag,
		Bucket: ev.Bucket,
	}
	r.bySeq[ev.Seq] = a
	if ev.ParentSeq < 0 {
		r.current.Roots = append(r.current.Roots, a)
		return
	}
	parent := r.bySeq[ev.ParentSeq]
	parent.Children = append(parent.Children, a)
}

// Instantiation records a conflict-set delta against its generating
// activation.
func (r *Recorder) Instantiation(_ rete.InstChange, parentSeq int) {
	if parentSeq < 0 {
		r.current.RootInsts++
		return
	}
	r.bySeq[parentSeq].Insts++
}

// EndCycle commits the cycle. Cycles with no activity are still
// recorded (they carry broadcast cost in the simulator).
func (r *Recorder) EndCycle(cycle int) {
	r.trace.Cycles = append(r.trace.Cycles, r.current)
	r.current = nil
	r.bySeq = nil
}
