package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpcrete/internal/core"
	"mpcrete/internal/obs"
	"mpcrete/internal/trace"
)

// SimulateFunc is the engine's pluggable simulation entry point
// (core.Simulate by default; tests substitute counting shims).
type SimulateFunc func(*trace.Trace, core.Config) (*core.Result, error)

// Engine executes sweeps on a bounded worker pool with a process-wide
// content-addressed result cache.
type Engine struct {
	workers  int
	metrics  *obs.Registry
	simulate SimulateFunc
	sims     atomic.Int64

	mu    sync.Mutex
	cache map[cacheKey]*cacheEntry
}

type cacheKey struct {
	trace  string
	config string
}

// cacheEntry is a singleflight slot: the first goroutine to claim the
// key runs the simulation inside once; latecomers block on it and
// share the result.
type cacheEntry struct {
	once sync.Once
	res  *core.Result
	err  error
}

// Option configures an Engine (New).
type Option func(*Engine)

// Workers bounds the pool; the default is runtime.GOMAXPROCS(0).
func Workers(n int) Option { return func(e *Engine) { e.workers = n } }

// Metrics attaches a registry for progress/ETA reporting: the engine
// publishes sweep/points_total, sweep/points_done, sweep/cache_hits,
// sweep/simulations, sweep/errors, sweep/elapsed_ms and sweep/eta_ms
// as the sweep advances.
func Metrics(reg *obs.Registry) Option { return func(e *Engine) { e.metrics = reg } }

// WithSimulate overrides the simulation function (tests).
func WithSimulate(fn SimulateFunc) Option { return func(e *Engine) { e.simulate = fn } }

// New returns an engine with an empty cache.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers:  runtime.GOMAXPROCS(0),
		simulate: core.Simulate,
		cache:    map[cacheKey]*cacheEntry{},
	}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	return e
}

// Simulations reports how many simulations the engine has actually
// executed (cache misses); the gap to the number of requested points
// is the memoization saving.
func (e *Engine) Simulations() int64 { return e.sims.Load() }

// Reset drops the memoized results (keeping the simulation counter),
// so the next Run is a cold sweep. Benchmarks use it to measure the
// full simulate-everything cost on a long-lived engine; long-running
// hosts can use it to release result memory between unrelated sweeps.
// It must not be called concurrently with Run.
func (e *Engine) Reset() {
	e.mu.Lock()
	e.cache = map[cacheKey]*cacheEntry{}
	e.mu.Unlock()
}

// Run expands the spec and executes it on the worker pool. The
// returned cells are in expansion order regardless of completion
// order. Individual point failures (including panics inside the
// simulator) land in their cell's Err; Run itself errors only on an
// empty spec.
func (e *Engine) Run(spec Spec) (*Results, error) {
	pts, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(pts))
	prog := e.startProgress(len(pts))
	workers := e.workers
	if workers > len(pts) {
		workers = len(pts)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				cells[i] = e.runPoint(spec, pts[i], e.cached)
				prog.step(cells[i].Err != "")
			}
		}()
	}
	for i := range pts {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return &Results{Spec: spec.Name, Cells: cells}, nil
}

// RunSequential executes the expansion in order on the calling
// goroutine, bypassing the cache entirely — the reference
// implementation the concurrent path is tested (and benchmarked)
// against.
func (e *Engine) RunSequential(spec Spec) (*Results, error) {
	pts, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(pts))
	prog := e.startProgress(len(pts))
	uncached := func(tr *trace.Trace, cfg core.Config) (*core.Result, error) {
		e.sims.Add(1)
		return e.simulateSafe(tr, cfg)
	}
	for i, pt := range pts {
		cells[i] = e.runPoint(spec, pt, uncached)
		prog.step(cells[i].Err != "")
	}
	return &Results{Spec: spec.Name, Cells: cells}, nil
}

// runPoint executes one point through the given run function,
// computing the speedup against the memoized baseline when asked.
func (e *Engine) runPoint(spec Spec, pt Point, run SimulateFunc) Cell {
	cell := Cell{Key: pt.Key}
	res, err := run(pt.Trace, pt.Config)
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	cell.Result = res
	if spec.Baseline {
		base, err := run(pt.Trace, core.Baseline(pt.Config))
		if err != nil {
			cell.Err = err.Error()
			return cell
		}
		cell.Base = base
		cell.Speedup = 1
		if res.Makespan != 0 {
			cell.Speedup = float64(base.Makespan) / float64(res.Makespan)
		}
	}
	return cell
}

// cached runs one simulation through the content-addressed cache:
// the first request for a (trace, config-fingerprint) pair simulates,
// every later one — concurrent or not — shares the stored result.
func (e *Engine) cached(tr *trace.Trace, cfg core.Config) (*core.Result, error) {
	key := cacheKey{trace: tr.Name, config: cfg.Fingerprint(tr)}
	e.mu.Lock()
	ent, hit := e.cache[key]
	if !hit {
		ent = &cacheEntry{}
		e.cache[key] = ent
	}
	e.mu.Unlock()
	if hit {
		e.metrics.Counter("sweep/cache_hits").Inc()
	}
	ent.once.Do(func() {
		e.sims.Add(1)
		e.metrics.Counter("sweep/simulations").Inc()
		ent.res, ent.err = e.simulateSafe(tr, cfg)
	})
	return ent.res, ent.err
}

// simulateSafe isolates panics: a crashing point becomes that cell's
// error instead of taking down the whole sweep.
func (e *Engine) simulateSafe(tr *trace.Trace, cfg core.Config) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("sweep: panic in %s: %v", tr.Name, r)
		}
	}()
	return e.simulate(tr, cfg)
}

// progress publishes completion and ETA through the obs registry.
// Workers step it concurrently, so a step counts and publishes under
// mu: a worker holding an older count can never write its gauges last,
// and once every point is done they read total and 0.
type progress struct {
	reg   *obs.Registry
	total int
	start time.Time
	mu    sync.Mutex
	done  int64
}

func (e *Engine) startProgress(total int) *progress {
	p := &progress{reg: e.metrics, total: total, start: time.Now()}
	p.reg.Gauge("sweep/points_total").Set(float64(total))
	p.reg.Gauge("sweep/points_done").Set(0)
	return p
}

func (p *progress) step(failed bool) {
	if failed {
		p.reg.Counter("sweep/errors").Inc()
	}
	if p.reg == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	done := p.done
	elapsed := time.Since(p.start)
	p.reg.Gauge("sweep/points_done").Set(float64(done))
	p.reg.Gauge("sweep/elapsed_ms").Set(float64(elapsed.Milliseconds()))
	if remaining := int64(p.total) - done; remaining > 0 && done > 0 {
		eta := time.Duration(int64(elapsed) / done * remaining)
		p.reg.Gauge("sweep/eta_ms").Set(float64(eta.Milliseconds()))
	} else {
		p.reg.Gauge("sweep/eta_ms").Set(0)
	}
}

// std is the shared process-wide engine: experiments run through it
// so points reused across figures (shared baselines, repeated
// proc-count columns) simulate exactly once per process.
var std = New()

// Run executes the spec on the shared process-wide engine.
func Run(spec Spec) (*Results, error) { return std.Run(spec) }
