package workloads

import (
	"fmt"
	"strings"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/trace"
)

// RecordRun executes an OPS5 program under the sequential engine with
// a trace recorder attached and returns the recorded hash-table
// activity trace — the full pipeline the paper used: a real
// uniprocessor run instrumented to drive the MPC simulator.
//
// maxCycles bounds the number of MRA cycles fired.
func RecordRun(name, programSrc, wmeSrc string, maxCycles int) (*trace.Trace, *engine.Session, error) {
	prog, err := ops5.ParseProgram(programSrc)
	if err != nil {
		return nil, nil, fmt.Errorf("workloads: parse %s: %w", name, err)
	}
	rec := trace.NewRecorder(name, 0)
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{Listener: rec})
	if err != nil {
		return nil, nil, fmt.Errorf("workloads: compile %s: %w", name, err)
	}
	wmes, err := ops5.ParseWMEs(wmeSrc)
	if err != nil {
		return nil, nil, fmt.Errorf("workloads: wmes for %s: %w", name, err)
	}
	e.InsertWMEs(wmes...)
	if _, err := e.Run(maxCycles); err != nil && err != engine.ErrCycleLimit {
		return nil, nil, fmt.Errorf("workloads: run %s: %w", name, err)
	}
	return rec.Trace(), e, nil
}

// BlocksWorldWMEs builds an initial tower of n blocks (b1 on b2 on ...
// on table) with unstack goals for the top n-1 blocks.
func BlocksWorldWMEs(n int) string {
	var b strings.Builder
	b.WriteString("(hand ^holding nothing ^from nowhere)\n")
	for i := 1; i <= n; i++ {
		writef(&b, "(block ^name b%d ^on ", i)
		if i < n {
			writef(&b, "b%d", i+1)
		} else {
			b.WriteString("table")
		}
		if i == 1 {
			b.WriteString(" ^clear yes)\n")
		} else {
			b.WriteString(" ^clear no)\n")
		}
	}
	for i := 1; i < n; i++ {
		task := "pending"
		if i == 1 {
			task = "unstack"
		}
		b.WriteString("(goal ^task ")
		b.WriteString(task)
		writef(&b, " ^object b%d ^done no)\n", i)
	}
	return b.String()
}

// RubikLikeWMEs builds f faces of c cubies each plus one queued twist
// per face and the solve phase marker. Each twist rewrites its face's
// c cubies (one rub-move firing per cubie) before rub-advance unlocks
// the next twist.
func RubikLikeWMEs(f, c int) string {
	var b strings.Builder
	b.WriteString("(phase ^name solve ^next 1)\n")
	for i := 1; i <= f; i++ {
		writef(&b, "(twist ^face f%d ^seq %d)\n", i, i)
		for j := 1; j <= c; j++ {
			writef(&b, "(cubie ^face f%d ^pos %d ^moved no)\n", i, j)
		}
	}
	return b.String()
}

// TourneyLikeWMEs builds t teams and s round/field slots plus the
// propose phase marker; the cross-product pairing production generates
// t*s pairings.
func TourneyLikeWMEs(t, s int) string {
	var b strings.Builder
	b.WriteString("(phase ^name propose)\n")
	for i := 1; i <= t; i++ {
		writef(&b, "(team ^name t%d)\n", i)
	}
	for i := 1; i <= s; i++ {
		writef(&b, "(slot ^round %d ^field f%d)\n", i, i%2+1)
	}
	return b.String()
}
