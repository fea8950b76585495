package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/expected.json from a fresh seed-1 sweep")

// testOps keeps the suite under ten seconds; -short (the CI race run)
// does one op per phase.
func testOps() int {
	if testing.Short() {
		return 1
	}
	return 3
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestWorkloadsRunTraced runs every workload end to end — untraced
// phase, traced repeat, side passes, trace file — and checks that what
// it prints is exactly what BENCHMARK.json names.
func TestWorkloadsRunTraced(t *testing.T) {
	c := readContract(t)
	host := pinHost()
	out := t.TempDir()
	if len(c.Workloads) != len(suite) {
		t.Fatalf("BENCHMARK.json names %d workloads, the suite has %d", len(c.Workloads), len(suite))
	}
	for i, def := range suite {
		if c.Workloads[i].Name != def.name || c.Workloads[i].Why != def.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the suite has %q (or the why differs)", i, c.Workloads[i].Name, def.name)
		}
		t.Run(def.name, func(t *testing.T) {
			res, err := run(def, runConfig{seed: 1, ops: testOps(), traced: true, setups: 1, outDir: out}, host)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.FailRatio != 0 {
				t.Fatalf("%d of %d ops failed: %s", res.Failed, res.Attempted, res.FirstErr)
			}
			if res.Host.GOMAXPROCS != min(host.NProc, 2) {
				t.Errorf("GOMAXPROCS recorded as %d, want min(nproc, 2)", res.Host.GOMAXPROCS)
			}
			for _, traced := range []bool{false, true} {
				var buf bytes.Buffer
				if err := report(&buf, res, traced); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				want := c.EndToEnd
				if traced {
					want = c.PerLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%t: printed %d metrics, BENCHMARK.json names %d", traced, len(line.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := line.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%t: metric %s [%s] missing or printed with unit %q", traced, m.Name, m.Unit, got.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, got.Value)
					}
				}
			}
			data, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Fatalf("trace file does not load as Chrome trace JSON (%d events): %v", len(chrome.TraceEvents), err)
			}
		})
	}
}

// TestMetricDefsMatchContract holds the Go metric tables and
// BENCHMARK.json to each other: names, units, directions, bounds.
func TestMetricDefsMatchContract(t *testing.T) {
	c := readContract(t)
	check := func(kind string, defs []metricDef, want []contractMetric, bounded bool) {
		if len(defs) != len(want) {
			t.Fatalf("%s: %d metrics in Go, %d in BENCHMARK.json", kind, len(defs), len(want))
		}
		for i, d := range defs {
			w := want[i]
			if d.Name != w.Name || d.Unit != w.Unit || d.Better != w.Better {
				t.Errorf("%s[%d]: Go has %s [%s] %s, BENCHMARK.json has %s [%s] %s", kind, i, d.Name, d.Unit, d.Better, w.Name, w.Unit, w.Better)
			}
			switch {
			case bounded && (w.Bound == nil || *w.Bound != d.Bound):
				t.Errorf("%s: bound differs or is missing in BENCHMARK.json", d.Name)
			case !bounded && w.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", d.Name)
			}
		}
	}
	check("end_to_end", endToEnd, c.EndToEnd, true)
	check("per_layer", perLayer, c.PerLayer, false)
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
}

// TestSelfTimesSumToOpTime: within every op, the self times of all
// spans add up to the op span's duration (to 1%), so a layer's share
// is never double counted or dropped.
func TestSelfTimesSumToOpTime(t *testing.T) {
	for _, name := range []string{"seq-queens", "serve-session"} {
		def := workloadByName(name)
		tr := newTracer()
		inst, err := def.setup(setupCtx{seed: 1, tr: tr})
		if err != nil {
			t.Fatal(err)
		}
		p := runPhase(def, inst, limit{ops: testOps()}, 0, tr)
		inst.close()
		if p.failed != 0 {
			t.Fatal(p.firstErr)
		}
		checked := 0
		for _, tk := range tr.tracks {
			self := selfTimes(tk.spans)
			sum := map[int32]int64{}
			root := map[int32]int64{}
			for i, s := range tk.spans {
				if s.name == "op" {
					root[s.op] = s.end - s.start
				}
				sum[s.op] += self[i]
			}
			for op, dur := range root {
				checked++
				if diff := float64(sum[op] - dur); diff > 0.01*float64(dur) || diff < -0.01*float64(dur) {
					t.Errorf("%s %s op %d: self times sum to %d ns, op took %d ns", name, tk.label, op, sum[op], dur)
				}
			}
		}
		if checked < p.ops {
			t.Errorf("%s: checked %d ops of %d", name, checked, p.ops)
		}
	}
}

// countingProxy forwards TCP between workers and the control plane and
// counts the bytes in each direction: an observer of the wire that is
// not the countConn under test.
type countingProxy struct {
	ln          net.Listener
	fromControl atomic.Int64
	fromWorker  atomic.Int64
	controlAddr string
	done        chan struct{}
}

func (p *countingProxy) serve(conns int) {
	for i := 0; i < conns; i++ {
		worker, err := p.ln.Accept()
		if err != nil {
			return
		}
		control, err := net.Dial("tcp", p.controlAddr)
		if err != nil {
			worker.Close()
			return
		}
		pipe := func(dst, src net.Conn, n *atomic.Int64) {
			copied, _ := io.Copy(dst, src)
			n.Add(copied)
			dst.Close()
			p.done <- struct{}{}
		}
		go pipe(worker, control, &p.fromControl)
		go pipe(control, worker, &p.fromWorker)
	}
}

// TestCountConnAgreesWithWire: the bytes the workers' counting conns
// saw are the bytes the control side wrote, and vice versa.
func TestCountConnAgreesWithWire(t *testing.T) {
	inst, err := setupQueens(queensMode{name: "wire"})(setupCtx{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := inst.(*queensInstance)
	ctl, err := transport.Listen(q.compiled.Network(), "127.0.0.1:0", transport.ControlOptions{Workers: queensWorkers})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	proxy := &countingProxy{ln: ln, controlAddr: ctl.Addr(), done: make(chan struct{}, 2*queensWorkers)}
	go proxy.serve(queensWorkers)

	wait := dialWorkers(ln.Addr().String(), queensWorkers)
	if err := ctl.WaitWorkers(); err != nil {
		t.Fatal(err)
	}
	sess := q.compiled.NewSession(engine.SessionOptions{Matcher: ctl})
	sess.InsertWMEs(q.board...)
	if _, err := sess.Run(50); err != nil && err != engine.ErrCycleLimit {
		t.Fatal(err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	read, written, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*queensWorkers; i++ {
		<-proxy.done
	}
	if got := proxy.fromControl.Load(); read != got || read == 0 {
		t.Errorf("workers read %d bytes, the control side wrote %d", read, got)
	}
	if got := proxy.fromWorker.Load(); written != got || written == 0 {
		t.Errorf("workers wrote %d bytes, the control side received %d", written, got)
	}
}

// TestSeedsAreDeterministic: the same seed generates the same inputs,
// another seed different ones.
func TestSeedsAreDeterministic(t *testing.T) {
	for _, def := range suite {
		digest := func(seed int64) uint64 {
			inst, err := def.setup(setupCtx{seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			return inst.inputDigest()
		}
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 generated two different inputs", def.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", def.name)
		}
	}
	if q, err := queensBoard(1); err != nil || wmeDigest(q) == 0 {
		t.Fatal(err)
	}
}

// TestQueensSeedsKeepTheWork: every seed's board fires the same number
// of rules (the seed reorders the search, it does not resize it), with
// a different transcript.
func TestQueensSeedsKeepTheWork(t *testing.T) {
	var firings []int
	transcripts := map[uint64]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		inst, err := setupQueens(queensMode{name: "seq"})(setupCtx{seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		q := inst.(*queensInstance)
		firings = append(firings, q.expect.firings)
		transcripts[q.expect.transcript] = true
	}
	for _, f := range firings {
		if f != firings[0] {
			t.Fatalf("firing counts differ across seeds: %v", firings)
		}
	}
	if len(transcripts) < 2 {
		t.Errorf("seeds 1..4 all produced one transcript")
	}
}

// TestCorruptedExpectationFails: the per-op checks are live — a wrong
// expectation turns into fail_ratio > 0 (wire-queens shares
// par-queens' checks and is left out for its run time).
func TestCorruptedExpectationFails(t *testing.T) {
	corrupt := map[string]func(instance){
		"sim-fig52":     func(i instance) { i.(*simInstance).expect.Events++ },
		"seq-queens":    func(i instance) { i.(*queensInstance).expect.transcript++ },
		"seq-burst":     func(i instance) { i.(*burstInstance).want++ },
		"par-queens":    func(i instance) { i.(*queensInstance).expect.firings++ },
		"serve-session": func(i instance) { s := i.(*serveInstance); s.variants[0].digest++ },
	}
	for name, breakIt := range corrupt {
		def := workloadByName(name)
		inst, err := def.setup(setupCtx{seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		breakIt(inst)
		p := runPhase(def, inst, limit{ops: 1}, 0, nil)
		inst.close()
		if failRatio := float64(p.failed) / float64(p.ops); failRatio <= 0 {
			t.Errorf("%s: corrupted expectation, fail_ratio = %v", name, failRatio)
		}
	}
	// The arithmetic placement check needs no expectation to corrupt.
	if err := checkPlacement(nil); err == nil {
		t.Error("checkPlacement accepted an empty board")
	}
}

// TestSimMatchesCommittedOutcome pins the seed-1 Fig 5-2 outcome to
// testdata/expected.json; -update rewrites the file.
func TestSimMatchesCommittedOutcome(t *testing.T) {
	inst, err := setupSim(setupCtx{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*simInstance)
	got, err := s.sweep(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "expected.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := got.equal(s.expect); err != nil {
		t.Errorf("seed-1 sweep differs from testdata/expected.json: %v", err)
	}
	if len(s.expect.Speedups) != 12 || s.expect.Events == 0 {
		t.Errorf("testdata/expected.json holds %d speedups and %d events", len(s.expect.Speedups), s.expect.Events)
	}
}

func TestDifferentGOMAXPROCSNotComparable(t *testing.T) {
	if err := compatible(hostInfo{GOMAXPROCS: 2}, hostInfo{GOMAXPROCS: 1}); err == nil {
		t.Error("results under GOMAXPROCS 2 and 1 compared")
	}
	if err := compatible(hostInfo{GOMAXPROCS: 2}, hostInfo{GOMAXPROCS: 2}); err != nil {
		t.Error(err)
	}
}
