// Package sweep is the concurrent engine behind the paper's
// evaluation grids. The experiments of Section 5 are cross-products —
// sections × processor counts × overhead settings × partition
// strategies × design variants — and every figure used to replay its
// grid strictly sequentially. A sweep takes a declarative Spec,
// expands it to the cross-product of core.Config runs, executes the
// points on a GOMAXPROCS-bounded worker pool, and aggregates the
// results deterministically: cells come back in expansion order, no
// matter which worker finished first.
//
// Repeated points — the shared one-processor baselines behind every
// speedup figure, and proc-count points reused across figures — are
// memoized in a content-addressed cache keyed by (trace name,
// core.Config.Fingerprint), so each distinct simulation runs once per
// process. A panicking point reports an error in its own cell instead
// of killing the sweep.
package sweep

import (
	"fmt"

	"mpcrete/internal/core"
	"mpcrete/internal/sched"
	"mpcrete/internal/trace"
)

// Variant is one ablation toggle of a sweep: a display name plus a
// config mutation (nil Mutate is the unmodified mapping).
type Variant struct {
	Name   string
	Mutate func(*core.Config)
}

// Spec declares an experiment grid. Every listed axis multiplies the
// run count; a nil axis contributes a single default element. The
// expansion order is fixed: traces (outermost), then variants, then
// overheads, then strategies, then processor counts (innermost) — the
// order the paper's tables group their rows in.
type Spec struct {
	// Name labels the sweep in progress metrics.
	Name string
	// Traces are the workload sections to replay.
	Traces []*trace.Trace
	// Procs are the match-processor counts (partition slots).
	Procs []int
	// Overheads are the Table 5-1 message-processing settings; nil
	// means the zero-overhead machine.
	Overheads []core.OverheadSetting
	// Strategies are the bucket-distribution policies; nil means the
	// simulator's round-robin default. A sched.PerCycleStrategy is
	// applied through Config.PerCycle (the off-line oracle), a
	// sched.RebalanceStrategy through Config.Partition plus
	// Config.Rebalance (the online adaptive policy), any other
	// strategy through Config.Partition.
	Strategies []sched.Strategy
	// Variants are ablation toggles.
	Variants []Variant
	// Baseline also runs each point's one-processor zero-overhead
	// baseline (core.Baseline) and reports the speedup ratio; the
	// baseline runs are memoized like any other point, so the shared
	// denominator of a whole figure simulates once.
	Baseline bool
}

// Key identifies one cell of a sweep.
type Key struct {
	Trace    string `json:"trace"`
	Procs    int    `json:"procs"`
	Overhead string `json:"overhead,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Variant  string `json:"variant,omitempty"`
}

func (k Key) String() string {
	s := fmt.Sprintf("%s/p%d", k.Trace, k.Procs)
	for _, part := range []string{k.Overhead, k.Strategy, k.Variant} {
		if part != "" {
			s += "/" + part
		}
	}
	return s
}

// group is the cell's series identity: the key minus the innermost
// (processor-count) axis.
func (k Key) group() Key { k.Procs = 0; return k }

// Point is one expanded run of a sweep.
type Point struct {
	Key    Key
	Trace  *trace.Trace
	Config core.Config
}

// Cell is one aggregated result. Err carries the point's failure
// (validation error or recovered panic) without aborting its
// siblings.
type Cell struct {
	Key     Key          `json:"key"`
	Speedup float64      `json:"speedup,omitempty"`
	Result  *core.Result `json:"result,omitempty"`
	Base    *core.Result `json:"base,omitempty"`
	Err     string       `json:"err,omitempty"`
}

// Results holds a sweep's cells in expansion order.
type Results struct {
	Spec  string `json:"spec,omitempty"`
	Cells []Cell `json:"cells"`
}

// Err returns the first cell error, if any.
func (r *Results) Err() error {
	for _, c := range r.Cells {
		if c.Err != "" {
			return fmt.Errorf("sweep: %s: %s", c.Key, c.Err)
		}
	}
	return nil
}

// Groups splits the ordered cells into runs sharing everything but
// the processor count — one slice per speedup curve.
func (r *Results) Groups() [][]Cell {
	var out [][]Cell
	for _, c := range r.Cells {
		if n := len(out); n > 0 && out[n-1][0].Key.group() == c.Key.group() {
			out[n-1] = append(out[n-1], c)
			continue
		}
		out = append(out, []Cell{c})
	}
	return out
}

// Expand materializes the spec's cross-product in its deterministic
// order. Strategies are applied here (once per trace/proc pair), so
// the engine's workers receive fully-formed configs.
func (s Spec) Expand() ([]Point, error) {
	if len(s.Traces) == 0 {
		return nil, fmt.Errorf("sweep: spec %q has no traces", s.Name)
	}
	if len(s.Procs) == 0 {
		return nil, fmt.Errorf("sweep: spec %q has no processor counts", s.Name)
	}
	overheads := s.Overheads
	if len(overheads) == 0 {
		overheads = []core.OverheadSetting{{}}
	}
	strategies := s.Strategies
	if len(strategies) == 0 {
		strategies = []sched.Strategy{nil}
	}
	variants := s.Variants
	if len(variants) == 0 {
		variants = []Variant{{}}
	}
	pts := make([]Point, 0, len(s.Traces)*len(variants)*len(overheads)*len(strategies)*len(s.Procs))
	for _, tr := range s.Traces {
		var load []map[int]int // computed lazily, once per trace
		for _, v := range variants {
			for _, ov := range overheads {
				for _, st := range strategies {
					for _, p := range s.Procs {
						cfg := core.NewConfig(p, core.WithOverhead(ov))
						if v.Mutate != nil {
							v.Mutate(&cfg)
						}
						key := Key{Trace: tr.Name, Procs: p, Overhead: cfg.Overhead.Name, Variant: v.Name}
						if st != nil {
							if load == nil {
								load = tr.BucketLoad(false)
							}
							cfg.Distribute(st, load, tr.NBuckets)
							key.Strategy = st.Name()
						}
						pts = append(pts, Point{Key: key, Trace: tr, Config: cfg})
					}
				}
			}
		}
	}
	return pts, nil
}
