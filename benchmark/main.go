// Command benchmark is the repo's benchmark: six workloads that drive
// every layer from outside, through public functions only, and report
// the same six end-to-end metrics each (plus fail_ratio), with a
// per-layer ledger from a separate traced run. BENCHMARK.json at the
// repo root describes it to the driver; README.md in this directory
// says why each workload and metric exists.
//
//	go run ./benchmark -workload seq-queens            nominal op count
//	go run ./benchmark -workload seq-queens -ops 100   fixed op count
//	go run ./benchmark -workload seq-queens -seconds 12
//	go run ./benchmark -workload par-queens -traced    + per-layer metrics, Chrome trace
//	go run ./benchmark -all                            the six workloads in order
//	go run ./benchmark -aa 5                           A/A calibration table
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// the untraced run, or with -trace 1 the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// suite lists the six workloads in -all order. Op counts size one
// run at 10-13 s on the 2-core calibration box, so that 136 driver
// runs with set-up fit the contract's cap.
var suite = []*workloadDef{
	{
		name: "sim-fig52", unit: "simulated events", ops: 375, clients: 1,
		why:   "the paper's own Fig 5-2 overhead sweep: core+simnet+sched do all the work, rete/engine/parallel/transport/server none",
		setup: setupSim,
	},
	{
		name: "seq-queens", unit: "rule firings", ops: 450, clients: 1,
		why:   "8-queens on the sequential engine: the reference row beside every parallel row; rete dominates, no message plane",
		setup: setupQueens(queensMode{name: "seq"}),
	},
	{
		name: "seq-burst", unit: "conflict-set deltas", ops: 2250, clients: 1,
		why:   "60x50 cross-product add burst then delete burst on one long-lived matcher: wide joins, negation and the delete path; engine idle",
		setup: setupBurst,
	},
	{
		name: "par-queens", unit: "rule firings", ops: 340, clients: 1,
		why:   "the same board on the 2-worker goroutine runtime: mailboxes and termination detection per cycle at the paper's fine grain",
		setup: setupQueens(queensMode{name: "par"}),
	},
	{
		name: "wire-queens", unit: "rule firings", ops: 60, clients: 1,
		why:   "the same board through transport.Control and two ServeConn workers over real loopback sockets: codec, frames, syscalls",
		setup: setupQueens(queensMode{name: "wire"}),
	},
	{
		name: "serve-session", unit: "sessions", ops: 37500, clients: 2,
		why:   "closed loop of 2 HTTP clients running whole blocks-world sessions: HTTP/JSON, admission, session pool and the wme parser dominate",
		setup: setupServe,
	},
}

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, so one slow set-up does not become the run's number.
const setupRepeats = 5

func workloadByName(name string) *workloadDef {
	for _, w := range suite {
		if w.name == name {
			return w
		}
	}
	return nil
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a result for people, then the full record on a line
// starting "result: " (the A/A mode and tests read it), then the
// contract line.
func report(w io.Writer, res *result, traced bool) error {
	fmt.Fprintf(w, "workload %s  seed %d  clients %d  ops (latency samples) %d  work %d %s  windows %d\n",
		res.Workload, res.Seed, res.Clients, res.Ops, res.Work, res.WorkUnit, res.Windows)
	fmt.Fprintf(w, "host gomaxprocs %d  nproc %d  %s  kernel %s  disturbed %t\n",
		res.Host.GOMAXPROCS, res.Host.NProc, res.Host.GoVersion, res.Host.Kernel, res.Disturbed)
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-34s %16.6g %s", m.Name, res.EndToEnd[m.Name], m.Unit)
		if whole, ok := res.WholeRun[m.Name]; ok {
			fmt.Fprintf(w, "   (whole run: %.6g)", whole)
		}
		fmt.Fprintln(w)
		if !traced {
			line.Metrics[m.Name] = metricValue{res.EndToEnd[m.Name], m.Unit}
		}
	}
	fmt.Fprintf(w, "  %-34s %16.6g %s\n", "fail_ratio", res.FailRatio, "1")
	if res.FirstErr != "" {
		fmt.Fprintf(w, "  first failure: %s\n", res.FirstErr)
	}
	if traced {
		fmt.Fprintf(w, "per-layer (traced run; trace written to %s)\n", res.TraceFile)
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.Name, res.PerLayer[m.Name], m.Unit)
			line.Metrics[m.Name] = metricValue{res.PerLayer[m.Name], m.Unit}
		}
	}
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "result: %s\n", full)
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run")
		all      = flag.Bool("all", false, "run the six workloads in order")
		seed     = flag.Int64("seed", 1, "input-generation seed")
		ops      = flag.Int("ops", 0, "fixed op count (default: the workload's nominal count)")
		seconds  = flag.Float64("seconds", 0, "measure for this long instead of a fixed op count")
		traced   = flag.Bool("traced", false, "repeat the workload with spans recorded and print per-layer metrics")
		trace    = flag.Int("trace", 0, "driver spelling of -traced: 0 or 1")
		outDir   = flag.String("out", "benchmark/out", "directory for trace-<workload>.json")
		aa       = flag.Int("aa", 0, "A/A calibration: two alternating sets of N full runs; prints the table committed as AA.md")
	)
	flag.Parse()
	if err := mainErr(*workload, *all, *aa, runConfig{
		seed:     *seed,
		ops:      *ops,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *traced || *trace == 1,
		setups:   setupRepeats,
		outDir:   *outDir,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, all bool, aa int, cfg runConfig) error {
	if aa > 0 {
		return calibrate(os.Stdout, aa, cfg)
	}
	var defs []*workloadDef
	switch {
	case all:
		defs = suite
	case workloadByName(workload) != nil:
		defs = []*workloadDef{workloadByName(workload)}
	default:
		var names []string
		for _, w := range suite {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q; the workloads are %s", workload, strings.Join(names, ", "))
	}
	host := pinHost()
	failed := 0
	for _, def := range defs {
		res, err := run(def, cfg, host)
		if err != nil {
			return err
		}
		if err := report(os.Stdout, res, cfg.traced); err != nil {
			return err
		}
		failed += res.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed their output check", failed)
	}
	return nil
}
