package difftest

import "testing"

// sessionOpts mirrors fuzzOpts: cheap per-case cost, shallow parallel
// sweep.
var sessionOpts = CheckOptions{MaxCycles: 20, Workers: []int{1, 2}, Budget: 10000}

// checkRow is Check over two rows only: the sequential shared
// reference and the given row.
func checkRow(c Case, row config, opts CheckOptions) *Mismatch {
	return checkConfigs(c, []config{seqConfig("shared"), row}, opts.withDefaults())
}

func TestCheckSessionsGeneratedCases(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		c := Gen(seed, ConfigFromBytes(nil))
		if mis := checkRow(c, sessions, sessionOpts); mis != nil {
			t.Fatalf("%v\nrepro:\n%s", mis, c.Encode())
		}
	}
}

func TestCheckSessionsCorpus(t *testing.T) {
	cases, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, c := range cases {
		if c.IsScript() {
			continue
		}
		if mis := checkRow(c, sessions, sessionOpts); mis != nil {
			t.Errorf("%v", mis)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("corpus has no engine-level cases")
	}
}

// TestCheckSessionsSkipsScripts: a script case never runs the sessions
// row, so even a forced divergence of it goes unseen.
func TestCheckSessionsSkipsScripts(t *testing.T) {
	opts := sessionOpts
	opts.ForceDivergence = "sessions"
	if mis := Check(GenScript(1, ConfigFromBytes(nil)), opts); mis != nil {
		t.Fatalf("script case ran the sessions row: %v", mis)
	}
}

// TestCheckSessionsForcedDivergence drills the divergence-reporting
// path: a synthetic perturbation of the sessions row must surface from
// the full matrix as a mismatch naming that row.
func TestCheckSessionsForcedDivergence(t *testing.T) {
	opts := sessionOpts
	opts.ForceDivergence = "sessions"
	mis := Check(Gen(1, ConfigFromBytes(nil)), opts)
	if mis == nil {
		t.Fatal("forced divergence not detected")
	}
	if mis.Config != "sessions" {
		t.Errorf("divergence blamed %q, want the sessions row", mis.Config)
	}
}

// FuzzSessionDifferential is the session-level generative fuzz target:
// every generated engine-level case must behave identically through
// the sequential reference and the sessions row (concurrent and
// pool-recycled sessions over one compiled network).
func FuzzSessionDifferential(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{5, 3, 3, 3, 3, 90, 40, 20})
	f.Add(int64(3), []byte{1, 1, 1, 1, 1, 0, 0, 0})
	f.Add(int64(4), []byte{4, 3, 2, 2, 2, 99, 49, 0})
	f.Fuzz(func(t *testing.T, seed int64, knobs []byte) {
		c := Gen(seed, ConfigFromBytes(knobs))
		if mis := checkRow(c, sessions, sessionOpts); mis != nil {
			t.Fatalf("%v\nrepro (save under testdata/corpus/):\n%s", mis, c.Encode())
		}
	})
}
