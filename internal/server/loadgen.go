package server

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// LoadSpec parameterizes a load run: Clients concurrent simulated
// clients each drive Sessions full session lifecycles (open with the
// server workload's seed wmes, run to quiescence, snapshot, close)
// against the target server.
type LoadSpec struct {
	Clients  int
	Sessions int
	// MaxCycles caps each run request (0 uses the server default).
	MaxCycles int
	// Batch folds assert-free run+snapshot into one batch round trip
	// followed by a snapshot, exercising the batching path.
	Batch bool
}

// LoadReport is the outcome of one load run. Sessions counts completed
// lifecycles; Errors counts failed requests, each of which abandons its
// lifecycle. Ops is in lifecycle order and ends with "session", the
// whole open-to-close latency.
type LoadReport struct {
	Clients      int         `json:"clients"`
	Sessions     int         `json:"sessions"`
	Errors       int         `json:"errors"`
	ElapsedS     float64     `json:"elapsed_s"`
	SessionsPerS float64     `json:"sessions_per_s"`
	Ops          []OpLatency `json:"ops"`
}

// OpLatency is the latency distribution of one operation across all
// clients.
type OpLatency struct {
	Op     string  `json:"op"`
	N      int     `json:"n"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
}

// latencies accumulates per-operation latency samples from all
// clients.
type latencies struct {
	mu      sync.Mutex
	byOp    map[string][]float64 // op -> ns samples
	errs    int
	lastErr error
}

func (l *latencies) record(op string, d time.Duration) {
	l.mu.Lock()
	l.byOp[op] = append(l.byOp[op], float64(d.Nanoseconds()))
	l.mu.Unlock()
}

func (l *latencies) fail(err error) {
	l.mu.Lock()
	l.errs++
	l.lastErr = err
	l.mu.Unlock()
}

// percentile returns the q-quantile (0 < q <= 1) of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RunLoad drives the load spec against the server behind c and returns
// the latency/throughput report. It fails only when no session
// completed; a partly failed run reports its failures in Errors.
func RunLoad(c *Client, spec LoadSpec) (*LoadReport, error) {
	if spec.Clients <= 0 {
		spec.Clients = 1
	}
	if spec.Sessions <= 0 {
		spec.Sessions = 1
	}
	lat := &latencies{byOp: make(map[string][]float64)}

	timed := func(op string, fn func() error) error {
		start := time.Now()
		err := fn()
		if err != nil {
			lat.fail(err)
			return err
		}
		lat.record(op, time.Since(start))
		return nil
	}

	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < spec.Clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spec.Sessions; i++ {
				sessStart := time.Now()
				var id string
				if err := timed("open", func() (err error) {
					id, err = c.Open(true, "")
					return err
				}); err != nil {
					continue
				}
				if spec.Batch {
					if timed("batch", func() error {
						_, err := c.Batch(id, []BatchOp{{Op: "run", MaxCycles: spec.MaxCycles}})
						return err
					}) != nil {
						c.Close(id)
						continue
					}
				} else if timed("run", func() error {
					_, err := c.Run(id, spec.MaxCycles)
					return err
				}) != nil {
					c.Close(id)
					continue
				}
				if timed("snapshot", func() error {
					_, err := c.Snapshot(id)
					return err
				}) != nil {
					c.Close(id)
					continue
				}
				if timed("close", func() error { return c.Close(id) }) != nil {
					continue
				}
				lat.record("session", time.Since(sessStart))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	completed := len(lat.byOp["session"])
	if completed == 0 {
		return nil, fmt.Errorf("server: load run completed no sessions (%d errors, last: %v)", lat.errs, lat.lastErr)
	}

	report := &LoadReport{
		Clients:      spec.Clients,
		Sessions:     completed,
		Errors:       lat.errs,
		ElapsedS:     elapsed.Seconds(),
		SessionsPerS: float64(completed) / elapsed.Seconds(),
	}
	for _, op := range []string{"open", "run", "batch", "snapshot", "close", "session"} {
		samples := lat.byOp[op]
		if len(samples) == 0 {
			continue
		}
		sort.Float64s(samples)
		var sum float64
		for _, v := range samples {
			sum += v
		}
		report.Ops = append(report.Ops, OpLatency{
			Op:     op,
			N:      len(samples),
			MeanNs: sum / float64(len(samples)),
			P50Ns:  percentile(samples, 0.50),
			P99Ns:  percentile(samples, 0.99),
		})
	}
	return report, nil
}
