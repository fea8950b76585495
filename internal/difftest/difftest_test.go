package difftest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// quickOpts keeps unit-test matrices small; the full default matrix
// runs in the fuzz targets and the stress test.
var quickOpts = CheckOptions{MaxCycles: 30, Workers: []int{1, 4}, Budget: 20000}

func TestGenProducesValidPrograms(t *testing.T) {
	cfgs := []GenConfig{
		{},
		{Productions: 6, MaxCEs: 4, EqDensity: 0.9, NegationProb: 0.4},
		{Productions: 2, Classes: 1, Attrs: 1, Values: 1, EqDensity: 0.01}, // Tourney-shaped: non-discriminating
	}
	for seed := int64(0); seed < 25; seed++ {
		for ci, cfg := range cfgs {
			c := Gen(seed, cfg)
			prog, err := ops5.ParseProgram(c.ProgSrc)
			if err != nil {
				t.Fatalf("seed %d cfg %d: generated program does not parse: %v\n%s", seed, ci, err, c.ProgSrc)
			}
			for _, p := range prog.Productions {
				if err := p.Validate(); err != nil {
					t.Fatalf("seed %d cfg %d: %v", seed, ci, err)
				}
			}
			if _, err := rete.Compile(prog.Productions); err != nil {
				t.Fatalf("seed %d cfg %d: generated program does not compile: %v", seed, ci, err)
			}
			if _, err := ops5.ParseWMEs(c.WMESrc); err != nil {
				t.Fatalf("seed %d cfg %d: generated wmes do not parse: %v", seed, ci, err)
			}
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	a, b := Gen(42, GenConfig{}), Gen(42, GenConfig{})
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("Gen is not deterministic for equal (seed, cfg)")
	}
	s1, s2 := GenScript(42, GenConfig{}), GenScript(42, GenConfig{})
	if !bytes.Equal(s1.Encode(), s2.Encode()) {
		t.Fatal("GenScript is not deterministic for equal (seed, cfg)")
	}
}

// TestEncodeDecodeRoundTrip pins the corpus file format: decoding an
// encoded case and re-encoding it must be byte-identical, for both
// engine-level and script cases.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, c := range []Case{Gen(seed, GenConfig{}), GenScript(seed, GenConfig{})} {
			enc := c.Encode()
			dec, err := Decode(c.Name, enc)
			if err != nil {
				t.Fatalf("case %s does not decode: %v\n%s", c.Name, err, enc)
			}
			re := dec.Encode()
			if !bytes.Equal(enc, re) {
				t.Fatalf("case %s: encode/decode/encode differs:\n--- first\n%s\n--- second\n%s", c.Name, enc, re)
			}
		}
	}
}

// TestSnapshotTextRoundTrip: a wme's text is its content. Every wme a
// generated case starts with, and every wme its run leaves in working
// memory, re-parses from String to a wme Equal to it — including what
// the right-hand sides make from variables bound to absent attributes,
// which half the initial store is given by knocking an attribute out.
// (A nil-valued attribute used to print as "^f1 nil" and come back as
// the symbol nil.)
func TestSnapshotTextRoundTrip(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 20; seed++ {
		c := Gen(seed, GenConfig{EqDensity: 0.2})
		prog, err := ops5.ParseProgram(c.ProgSrc)
		if err != nil {
			t.Fatal(err)
		}
		wmes, err := ops5.ParseWMEs(c.WMESrc)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range wmes {
			if i%2 == 0 {
				w.Set("f1", ops5.Value{}) // symbolic, so no compute trips on it
			}
		}
		e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{Output: &bytes.Buffer{}})
		if err != nil {
			t.Fatal(err)
		}
		e.InsertWMEs(wmes...)
		for cycle := 0; cycle < 25; cycle++ {
			if in, err := e.Step(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			} else if in == nil {
				break
			}
		}
		for _, w := range append(wmes, e.WMEs()...) {
			back, err := ops5.ParseWMEs(w.String())
			if err != nil || len(back) != 1 || !back[0].Equal(w) || !w.Equal(back[0]) || back[0].String() != w.String() {
				t.Fatalf("seed %d: %s re-parses to %v (%v)", seed, w, back, err)
			}
			if strings.Contains(w.String(), " nil") {
				t.Fatalf("seed %d: %s prints a nil value", seed, w)
			}
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d wmes checked", checked)
	}
}

// TestCorpus replays every committed corpus case through the full
// configuration matrix: the engine-level ones through the serving
// shapes and the simulator's conservation check too (sessions,
// seq-traced).
func TestCorpus(t *testing.T) {
	cases, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty corpus")
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			if mis := Check(c, CheckOptions{}); mis != nil {
				t.Fatal(mis)
			}
		})
	}
}

// TestMatrixRows pins every row name of the matrix at the default
// options and with the wire and migration rows added, so that a change
// to the matrix shows as a diff here. The default set is 19 rows.
func TestMatrixRows(t *testing.T) {
	const seqRows = "seq seq-traced seq-linear seq-unshared seq-candc seq-bounded sessions "
	for _, tc := range []struct {
		opts CheckOptions
		want string
	}{
		{CheckOptions{}, seqRows +
			"par-w1-bcast par-w1-routed par-w2-bcast par-w2-routed par-w4-bcast par-w4-routed par-w8-bcast par-w8-routed " +
			"par-w8-bcast-unshared par-w8-routed-candc par-w1-bcast-bounded par-w8-routed-bounded"},
		{CheckOptions{Workers: []int{2}, TCP: true}, seqRows +
			"par-w2-bcast par-w2-routed par-w2-bcast-unshared par-w2-routed-candc par-w2-bcast-bounded par-w2-routed-bounded " +
			"tcp-w2-bcast tcp-w2-routed"},
		{CheckOptions{Workers: []int{2, 4}, TCP: true, Rebalance: true}, seqRows +
			"par-w2-bcast par-w2-routed par-w4-bcast par-w4-routed " +
			"par-w4-bcast-unshared par-w4-routed-candc par-w2-bcast-bounded par-w4-routed-bounded " +
			"tcp-w2-bcast tcp-w2-routed " +
			"adapt-w2-bcast adapt-w2-routed migrate-w2-bcast migrate-w2-routed " +
			"adapt-w4-bcast adapt-w4-routed migrate-w4-bcast migrate-w4-routed " +
			"tcpadapt-w2-bcast tcpadapt-w2-routed tcpmigrate-w2-bcast tcpmigrate-w2-routed"},
	} {
		var got []string
		for _, c := range configMatrix(tc.opts.withDefaults()) {
			got = append(got, c.name)
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%+v: rows\n  %s\nwant\n  %s", tc.opts, strings.Join(got, " "), tc.want)
		}
	}
}

// TestTCPTransportParity replays the committed corpus and a slice of
// generated cases through the star carrier's configurations (tcp-*): a
// control and worker protocol loops on local connections, run in one
// process — proving conflict-set parity across the frame codec and
// real sockets.
func TestTCPTransportParity(t *testing.T) {
	opts := CheckOptions{MaxCycles: 20, Workers: []int{2}, Budget: 10000, TCP: true}
	cases, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() && len(cases) > 4 {
		cases = cases[:4]
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			if mis := Check(c, opts); mis != nil {
				t.Fatal(mis)
			}
		})
	}
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		if mis := Check(Gen(seed, GenConfig{}), opts); mis != nil {
			t.Fatalf("%v\nrepro:\n%s", mis, mis.Case.Encode())
		}
		if mis := Check(GenScript(seed, GenConfig{}), opts); mis != nil {
			t.Fatalf("%v\nrepro:\n%s", mis, mis.Case.Encode())
		}
	}
}

// TestGeneratedCasesCheckClean is the deterministic slice of the fuzz
// target: a spread of seeds and configs through the quick matrix.
func TestGeneratedCasesCheckClean(t *testing.T) {
	n := int64(12)
	if testing.Short() {
		n = 4
	}
	for seed := int64(0); seed < n; seed++ {
		cfg := GenConfig{EqDensity: float64(seed%5) / 4}
		if mis := Check(Gen(seed, cfg), quickOpts); mis != nil {
			t.Fatalf("%v\nrepro:\n%s", mis, mis.Case.Encode())
		}
		if mis := Check(GenScript(seed, cfg), quickOpts); mis != nil {
			t.Fatalf("%v\nrepro:\n%s", mis, mis.Case.Encode())
		}
	}
}

// TestGeneratedTraceDifferential runs the trace-level differential —
// the seq-traced row's replay through the simulator — over generated
// programs.
func TestGeneratedTraceDifferential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := Gen(seed, GenConfig{})
		if mis := checkRow(c, seqTraced, CheckOptions{MaxCycles: 30}); mis != nil {
			t.Fatalf("%v\nrepro:\n%s", mis, c.Encode())
		}
	}
}

// TestChaosStressNoDivergence is the acceptance-criteria stress run:
// hundreds of randomized generated programs through w ∈ {2,4,8} in
// broadcast and routed modes with the chaos scheduling layer enabled,
// asserting zero conflict-set divergence. Run under -race in CI.
func TestChaosStressNoDivergence(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 24
	}
	opts := CheckOptions{MaxCycles: 15, Workers: []int{2, 4, 8}, Budget: 8000}
	for seed := 0; seed < seeds; seed++ {
		opts.ChaosSeed = int64(seed) + 1
		cfg := GenConfig{
			Productions: 2 + seed%3,
			EqDensity:   float64(seed%4) / 3,
		}
		var c Case
		if seed%3 == 2 {
			c = GenScript(int64(seed), cfg)
		} else {
			c = Gen(int64(seed), cfg)
		}
		if mis := Check(c, opts); mis != nil {
			t.Fatalf("seed %d: %v\nrepro:\n%s", seed, mis, mis.Case.Encode())
		}
	}
}

// filterMatcher suppresses every conflict-set delta of one production
// — the artificial divergence injected to prove the shrinker works.
type filterMatcher struct {
	inner engine.MatchApplier
	drop  string
}

func (f filterMatcher) Apply(changes []rete.Change) []rete.InstChange {
	out := f.inner.Apply(changes)
	kept := out[:0]
	for _, ic := range out {
		if ic.Info.Prod.Name != f.drop {
			kept = append(kept, ic)
		}
	}
	return kept
}

// panicMatcher panics on every Apply: a fault every configuration
// hits the same way.
type panicMatcher struct{}

func (panicMatcher) Apply([]rete.Change) []rete.InstChange { panic("shared fault") }

// TestCheckReportsAPanicEveryRowShares: rows that all panic alike give
// equal outcomes but are still a failure, reported with the stack.
func TestCheckReportsAPanicEveryRowShares(t *testing.T) {
	panicking := func(name string) config {
		return config{name: name, build: func(prods []*ops5.Production, _ CheckOptions) (built, error) {
			net, err := rete.Compile(prods)
			return built{net: net, matcher: panicMatcher{}}, err
		}}
	}
	c := Case{Name: "panics", ProgSrc: "(p pair (a ^x <v>) --> (make b ^y <v>))", WMESrc: "(a ^x 1)"}
	m := checkConfigs(c, []config{panicking("ref"), panicking("other")}, quickOpts.withDefaults())
	if m == nil {
		t.Fatal("Check returned nil for rows that all panicked")
	}
	if m.Config != "ref" || !strings.Contains(m.Detail, "shared fault") || !strings.Contains(m.Detail, "panicMatcher.Apply") {
		t.Fatalf("mismatch %s: %s; want the reference row, the panic value and its stack", m.Config, m.Detail)
	}
	ok := config{name: "ok", build: seqBuild("shared", checkNBuckets)}
	m = checkConfigs(c, []config{ok, panicking("other")}, quickOpts.withDefaults())
	if m == nil || m.Config != "other" || !strings.Contains(m.Detail, "shared fault") {
		t.Fatalf("a panic in a non-reference row: got %v", m)
	}
}

// stallMatcher matches only its first phase, as a runtime whose worker
// died after the first cycle does: every later Apply finds nothing.
type stallMatcher struct {
	inner  engine.MatchApplier
	phases *int
}

func (s stallMatcher) Apply(changes []rete.Change) []rete.InstChange {
	if *s.phases++; *s.phases > 1 {
		return nil
	}
	return s.inner.Apply(changes)
}

// TestCheckReportsAFailedRowsError: a row whose run failed stops short,
// and its mismatch names the failure, not the cycle count it fell
// short by.
func TestCheckReportsAFailedRowsError(t *testing.T) {
	const why = "transport: worker 1 acts turn: wire: malformed payload: side 7 at offset 12"
	failing := config{name: "failing", build: func(prods []*ops5.Production, _ CheckOptions) (built, error) {
		net, err := rete.Compile(prods)
		if err != nil {
			return built{}, err
		}
		m := rete.NewMatcher(net, rete.MatcherOptions{NBuckets: checkNBuckets})
		return built{net: net, matcher: stallMatcher{inner: m, phases: new(int)}, finish: func() error { return errors.New(why) }}, nil
	}}
	c := Case{Name: "chain", ProgSrc: "(p ab (a ^x <v>) --> (make b ^y <v>)) (p bc (b ^y <v>) --> (make c ^z <v>))", WMESrc: "(a ^x 1)"}
	ok := config{name: "ok", build: seqBuild("shared", checkNBuckets)}
	m := checkConfigs(c, []config{ok, failing}, quickOpts.withDefaults())
	if m == nil || m.Config != "failing" || !strings.Contains(m.Detail, why) {
		t.Fatalf("a failed row: got %v, want its mismatch to carry %q", m, why)
	}
}

// brokenDiverges runs the case through the sequential reference and a
// variant whose matcher drops production `drop`'s instantiations,
// reporting whether they diverge — true exactly when the case actually
// exercises that production.
func brokenDiverges(c Case, drop string, opts CheckOptions) bool {
	opts = opts.withDefaults()
	ref := runConfig(c, seqConfig("shared"), opts)
	broken := config{name: "broken", build: func(prods []*ops5.Production, _ CheckOptions) (built, error) {
		net, err := rete.Compile(prods)
		if err != nil {
			return built{}, err
		}
		m := rete.NewMatcher(net, rete.MatcherOptions{NBuckets: checkNBuckets})
		return built{net: net, matcher: filterMatcher{inner: m, drop: drop}}, nil
	}}
	got := runConfig(c, broken, opts)
	return ref.diff(got) != ""
}

// TestShrinkReducesInjectedDivergence is the shrinker acceptance test:
// a 10-production generated case with an artificially injected
// divergence (one production's deltas suppressed) must shrink to at
// most 3 productions while still reproducing the divergence.
func TestShrinkReducesInjectedDivergence(t *testing.T) {
	opts := CheckOptions{MaxCycles: 30, Budget: 20000}
	// Find a seed whose case exercises a production we can break.
	var c Case
	var drop string
	for seed := int64(0); seed < 50 && drop == ""; seed++ {
		cand := Gen(seed, GenConfig{Productions: 10, InitialWMEs: 12})
		for p := 0; p < 10; p++ {
			name := fmt.Sprintf("p%d", p)
			if brokenDiverges(cand, name, opts) {
				c, drop = cand, name
				break
			}
		}
	}
	if drop == "" {
		t.Fatal("no generated case exercised any production; generator is broken")
	}
	fails := func(cc Case) bool { return brokenDiverges(cc, drop, opts) }
	shrunk := Shrink(c, fails)
	if !fails(shrunk) {
		t.Fatal("shrunk case no longer reproduces the divergence")
	}
	prog, err := ops5.ParseProgram(shrunk.ProgSrc)
	if err != nil {
		t.Fatalf("shrunk case does not parse: %v", err)
	}
	if len(prog.Productions) > 3 {
		t.Fatalf("shrunk to %d productions, want <= 3:\n%s", len(prog.Productions), shrunk.Encode())
	}
	// The repro must round-trip through the corpus format.
	if _, err := Decode(shrunk.Name, shrunk.Encode()); err != nil {
		t.Fatalf("shrunk repro does not round-trip: %v", err)
	}
	t.Logf("shrunk %d -> %d productions, %d -> %d bytes",
		10, len(prog.Productions), len(c.Encode()), len(shrunk.Encode()))
}

// TestShrinkScript pins script shrinking with remove-renumbering: the
// predicate needs one specific add+remove pair plus a later partner,
// and shrinking must preserve validity (every remove references a
// surviving add) while discarding the noise cycles.
func TestShrinkScript(t *testing.T) {
	base, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var c Case
	for _, cc := range base {
		if cc.Name == "cross-product-burst" {
			c = cc
		}
	}
	if c.Name == "" {
		t.Fatal("cross-product-burst corpus case missing")
	}
	// Predicate: the sequential run reports at least 40 netted adds.
	fails := func(cc Case) bool {
		out := runConfig(cc, seqConfig("shared"), quickOpts.withDefaults())
		adds := 0
		for _, line := range out.Cycles {
			adds += strings.Count(line[:strings.Index(line, "|")], "+")
		}
		return adds >= 40
	}
	if !fails(c) {
		t.Fatal("predicate does not hold on the original case")
	}
	shrunk := Shrink(c, fails)
	if !fails(shrunk) {
		t.Fatal("shrunk case no longer satisfies the predicate")
	}
	if _, err := Decode(shrunk.Name, shrunk.Encode()); err != nil {
		t.Fatalf("shrunk script case invalid after renumbering: %v\n%s", err, shrunk.Encode())
	}
	if n, m := countOps(shrunk.Script), countOps(c.Script); n >= m {
		t.Fatalf("shrinker made no progress: %d -> %d ops", m, n)
	}
}

func countOps(script [][]ScriptOp) int {
	n := 0
	for _, cyc := range script {
		n += len(cyc)
	}
	return n
}

// TestMismatchError pins the Mismatch error rendering the CLI and
// fuzz crashes rely on.
func TestMismatchError(t *testing.T) {
	m := &Mismatch{Case: Case{Name: "x"}, Config: "par-w4-routed", Detail: "cycle 2: ..."}
	msg := m.Error()
	for _, want := range []string{"x", "par-w4-routed", "cycle 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
