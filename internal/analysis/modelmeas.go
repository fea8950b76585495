package analysis

import (
	"encoding/json"
	"fmt"
	"io"

	"mpcrete/internal/core"
	"mpcrete/internal/engine"
	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// Model-vs-measured validation: run one OPS5 workload through both
// halves of the codebase and put the numbers side by side.
//
//	sequential engine + trace recorder ──► trace ──► simnet model  (predicted)
//	                │
//	                └─► same engine loop over internal/parallel     (measured)
//	                    with the flight recorder attached
//
// The paper only ever had the left column — its results are simulated.
// This report is the missing right column: the QCDSP-style check that
// the cost model's per-cycle predictions line up with what a real
// message-passing runtime does on the same workload, and the
// calibration substrate the multi-process transport validates
// against.
//
// The two columns measure different clocks — the model charges the
// paper's mid-1980s per-activation microsecond costs while the runtime
// spends real nanoseconds on a shared-memory goroutine machine — so
// cycle *times* are compared shape-wise, not absolutely. Structural
// quantities are directly comparable: the measured critical path (in
// dependent activation steps) is bounded below by CriticalPath on the
// recorded trace, and because both sides walk the same activation
// forest with the same counting rule it should be exactly equal.
// Message counts are reported side by side but count different things
// (the model ships every remote token and instantiation as a message;
// the runtime coalesces and keeps instantiation delivery in-process).

// MMOptions configure a model-vs-measured comparison.
type MMOptions struct {
	// Workers is the parallel worker count and the model's MatchProcs
	// (default 4).
	Workers int
	// MaxCycles caps the MRA cycles of both runs (default 200).
	MaxCycles int
	// RouteRoots selects the Fig 3-2 message plane for the measured
	// run.
	RouteRoots bool
	// ChaosSeed perturbs the measured run's scheduling (0 = off).
	ChaosSeed int64
	// Transport, when non-nil, is called with the compiled network to
	// supply the measured run's message plane (internal/transport's
	// Loopback: the star carrier the multi-process runtime runs, so
	// measured per-message costs include its frames and socket hops).
	// Nil uses the goroutine runtime's mailboxes. It does not compose
	// with ChaosSeed.
	Transport func(*rete.Network) parallel.Transport
}

// MMRow is one cycle of the side-by-side comparison.
type MMRow struct {
	Cycle int `json:"cycle"`
	// PredictedUS is the model's simulated cycle time; MeasuredUS the
	// runtime's wall-clock cycle time. Different clocks — compare
	// shapes, not magnitudes.
	PredictedUS float64 `json:"predicted_us"`
	MeasuredUS  float64 `json:"measured_us"`
	// PredictedMsgs counts simulated message deliveries; MeasuredMsgs
	// counts coalesced runtime messages.
	PredictedMsgs int   `json:"predicted_msgs"`
	MeasuredMsgs  int64 `json:"measured_msgs"`
	// PredictedActs / MeasuredHandles count node activations processed
	// (directly comparable; the trace replay and the live match walk
	// the same forest).
	PredictedActs   int   `json:"predicted_acts"`
	MeasuredHandles int64 `json:"measured_handles"`
	// CritPathBound is CriticalPath on the recorded trace cycle — the
	// lower bound no machine can beat. MeasuredCritPath is the deepest
	// dependency chain the instrumented runtime observed.
	CritPathBound    int   `json:"critpath_bound"`
	MeasuredCritPath int32 `json:"measured_critpath"`
}

// MMReport is the full comparison.
type MMReport struct {
	Name     string  `json:"name"`
	Workers  int     `json:"workers"`
	Routed   bool    `json:"routed"`
	Overhead string  `json:"overhead"`
	Rows     []MMRow `json:"rows"`
	// PredictedMakespanUS / MeasuredMakespanUS sum the per-cycle
	// columns.
	PredictedMakespanUS float64 `json:"predicted_makespan_us"`
	MeasuredMakespanUS  float64 `json:"measured_makespan_us"`
	// PredictedInsts / MeasuredInsts count instantiation deliveries
	// (model: messages to control; runtime: deltas before netting).
	PredictedInsts int   `json:"predicted_insts"`
	MeasuredInsts  int64 `json:"measured_insts"`
	// Fired is the engine-level firing count, identical on both runs
	// by construction (checked).
	Fired int `json:"fired"`

	// Dump is the measured run's flight-recorder dump (omitted from
	// JSON; export it separately with Dump.WriteJSON).
	Dump *obs.FlightDump `json:"-"`
}

// CheckCritPathBound verifies the acceptance invariant: on every
// compared cycle the measured critical path is at least the trace
// lower bound.
func (r *MMReport) CheckCritPathBound() error {
	for _, row := range r.Rows {
		if int(row.MeasuredCritPath) < row.CritPathBound {
			return fmt.Errorf("analysis: cycle %d measured critical path %d below trace bound %d",
				row.Cycle, row.MeasuredCritPath, row.CritPathBound)
		}
	}
	return nil
}

// CompareModelMeasured runs the named OPS5 workload through the
// sequential engine (recording a trace), replays the trace through the
// simulator (predicted), runs the same workload through the
// instrumented parallel runtime (measured), and aligns the two per
// cycle.
func CompareModelMeasured(name, progSrc, wmeSrc string, opts MMOptions) (*MMReport, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.MaxCycles <= 0 {
		opts.MaxCycles = 200
	}
	// The model's message overhead is the 5/3 µs Nectar-class point.
	overhead := core.OverheadRuns()[1]

	// 1. Sequential instrumented run -> trace.
	tr, seqEng, err := workloads.RecordRun(name, progSrc, wmeSrc, opts.MaxCycles)
	if err != nil {
		return nil, err
	}
	if len(tr.Cycles) == 0 {
		return nil, fmt.Errorf("analysis: %s recorded no cycles", name)
	}

	// 2. Predicted: replay the trace through the cost model.
	pred, err := core.Simulate(tr, core.NewConfig(opts.Workers, core.WithOverhead(overhead)))
	if err != nil {
		return nil, err
	}
	bounds := CriticalPaths(tr)

	// 3. Measured: same workload through the instrumented parallel
	// runtime, driven by an identical engine loop.
	prog, err := ops5.ParseProgram(progSrc)
	if err != nil {
		return nil, fmt.Errorf("analysis: parse %s: %w", name, err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		return nil, fmt.Errorf("analysis: compile %s: %w", name, err)
	}
	// Retention covers every recorded cycle, so the report is complete.
	cr := parallel.NewFlightRecorder(opts.Workers, 0, len(tr.Cycles)+1, tr.NBuckets)
	popts := parallel.Options{
		Workers:    opts.Workers,
		NBuckets:   tr.NBuckets,
		RouteRoots: opts.RouteRoots,
		ChaosSeed:  opts.ChaosSeed,
		Causal:     cr,
	}
	if opts.Transport != nil {
		popts.Transport = opts.Transport(net)
	}
	rt, err := parallel.New(net, popts)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	parEng, err := engine.NewWithNetwork(prog, net, engine.SessionOptions{Matcher: rt})
	if err != nil {
		return nil, fmt.Errorf("analysis: engine for %s: %w", name, err)
	}
	wmes, err := ops5.ParseWMEs(wmeSrc)
	if err != nil {
		return nil, fmt.Errorf("analysis: wmes for %s: %w", name, err)
	}
	parEng.InsertWMEs(wmes...)
	if _, err := parEng.Run(opts.MaxCycles); err != nil && err != engine.ErrCycleLimit {
		return nil, fmt.Errorf("analysis: parallel run %s: %w", name, err)
	}
	stats := rt.Stats()
	dump := rt.FlightDump()

	// 4. Sanity: both engines executed the same MRA trajectory.
	if seqEng.Fired() != parEng.Fired() {
		return nil, fmt.Errorf("analysis: %s fired %d sequentially but %d in parallel — runs not comparable",
			name, seqEng.Fired(), parEng.Fired())
	}
	if len(dump.Cycles) != len(tr.Cycles) {
		return nil, fmt.Errorf("analysis: %s trace has %d cycles, flight recorder retained %d",
			name, len(tr.Cycles), len(dump.Cycles))
	}

	// 5. Align cycle i: trace cycle i (0-based) is runtime cycle i+1.
	rep := &MMReport{
		Name: name, Workers: opts.Workers, Routed: opts.RouteRoots,
		Overhead: overhead.Name, Dump: dump,
		PredictedInsts: pred.Insts, MeasuredInsts: stats.Insts,
		Fired: seqEng.Fired(),
	}
	for i, rec := range dump.Cycles {
		if int(rec.Cycle) != i+1 {
			return nil, fmt.Errorf("analysis: cycle record %d carries cycle id %d — retention window slid", i, rec.Cycle)
		}
		agg := rec.Total()
		acts := 0
		for _, n := range pred.ActsPerSlot[i] {
			acts += n
		}
		rep.Rows = append(rep.Rows, MMRow{
			Cycle:            i + 1,
			PredictedUS:      pred.CycleTimes[i].Microseconds(),
			MeasuredUS:       float64(rec.WallNS) / 1e3,
			PredictedMsgs:    pred.MsgsPerCycle[i],
			MeasuredMsgs:     agg.Sends,
			PredictedActs:    acts,
			MeasuredHandles:  agg.Handles,
			CritPathBound:    bounds[i],
			MeasuredCritPath: agg.MaxDepth,
		})
		rep.PredictedMakespanUS += pred.CycleTimes[i].Microseconds()
		rep.MeasuredMakespanUS += float64(rec.WallNS) / 1e3
	}
	return rep, nil
}

// WriteJSON exports the report (without the dump).
func (r *MMReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV exports the per-cycle rows.
func (r *MMReport) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cycle,predicted_us,measured_us,predicted_msgs,measured_msgs,predicted_acts,measured_handles,critpath_bound,measured_critpath"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%d,%.3f,%.3f,%d,%d,%d,%d,%d,%d\n",
			row.Cycle, row.PredictedUS, row.MeasuredUS, row.PredictedMsgs, row.MeasuredMsgs,
			row.PredictedActs, row.MeasuredHandles, row.CritPathBound, row.MeasuredCritPath); err != nil {
			return err
		}
	}
	return nil
}

// Render writes the human-readable table.
func (r *MMReport) Render(w io.Writer) error {
	mode := "broadcast"
	if r.Routed {
		mode = "routed"
	}
	fmt.Fprintf(w, "model vs measured: %s (workers=%d, %s, overhead=%s)\n", r.Name, r.Workers, mode, r.Overhead)
	fmt.Fprintf(w, "%5s  %12s  %12s  %9s  %9s  %9s  %9s  %7s  %7s\n",
		"cycle", "pred µs", "meas µs", "pred msg", "meas msg", "pred act", "meas act", "cp bnd", "cp meas")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%5d  %12.1f  %12.1f  %9d  %9d  %9d  %9d  %7d  %7d\n",
			row.Cycle, row.PredictedUS, row.MeasuredUS, row.PredictedMsgs, row.MeasuredMsgs,
			row.PredictedActs, row.MeasuredHandles, row.CritPathBound, row.MeasuredCritPath)
	}
	fmt.Fprintf(w, "makespan: predicted %.1f µs, measured %.1f µs; insts: predicted %d, measured %d; fired %d\n",
		r.PredictedMakespanUS, r.MeasuredMakespanUS, r.PredictedInsts, r.MeasuredInsts, r.Fired)
	if err := r.CheckCritPathBound(); err != nil {
		fmt.Fprintf(w, "WARNING: %v\n", err)
	} else {
		fmt.Fprintln(w, "critical path: measured >= trace bound on every cycle")
	}
	return nil
}
