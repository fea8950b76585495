package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// instance is one workload after set-up: inputs generated, programs
// compiled, servers started, expectations computed.
type instance interface {
	// op runs operation i for the given client, recording spans on t
	// (nil when untraced). It returns the work units the op completed
	// and a non-nil error when any output check failed.
	op(client, i int, t *track) (work int64, err error)
	// layers fills the workload's per-layer metrics from the traced
	// phase; it may run side passes through lc.side.
	layers(lc *layerCtx)
	// inputDigest fingerprints the generated inputs: equal for equal
	// seeds, different otherwise.
	inputDigest() uint64
	close()
}

// auditor is implemented by instances whose correctness also depends
// on a counter read after the phase (serve-session: Stats.Rejected).
type auditor interface {
	audit() (failures int)
}

// setupCtx is what a workload's set-up receives. The program under
// test never sees seed, only the inputs generated from it.
type setupCtx struct {
	seed int64
	tr   *tracer // nil for an untraced instance
}

type workloadDef struct {
	name    string
	unit    string // what one work unit is
	why     string
	ops     int // nominal op count of one run
	clients int // closed-loop client goroutines
	setup   func(sc setupCtx) (instance, error)
}

// tracer owns the tracks of one traced phase. A nil tracer hands out
// nil tracks, which record nothing.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) newTrack(label string, capacity int) *track {
	if tr == nil {
		return nil
	}
	t := newTrack(label, tr.epoch, capacity)
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, t)
	tr.mu.Unlock()
	return t
}

// limit bounds a phase by op count, by duration, or both (whichever
// is reached first); a zero field does not bound.
type limit struct {
	ops      int
	duration time.Duration
}

// phase is the raw measurement of one run of ops.
type phase struct {
	ops      int
	failed   int
	work     int64
	wall     time.Duration
	cpu      time.Duration
	allocB   uint64
	allocs   uint64
	gcCycles uint32
	gcPause  time.Duration
	lat      []float64 // per-op duration, µs
	windows  []window
	sentinel []float64 // xorshift sentinel duration, µs
	firstErr error
}

// window is a stretch of the measured phase a few ops of client 0
// long (about windowTarget): the unit the timing metrics are estimated
// on. See timing.
type window struct {
	dt   time.Duration
	cpu  time.Duration
	work int64   // completed by all clients during the window
	p50  float64 // median duration of client 0's ops in the window, µs
}

const windowTarget = 50 * time.Millisecond

// sentinelEvery spaces the ~1.3 ms xorshift sentinel so it stays under
// 1% of the run: one per four 50 ms windows.
const sentinelEvery = 4

// timing reduces a phase's windows to the three timing metrics, each
// read from the window where it was best.
//
// The calibration box is a shared 2-core VM. Its neighbours slow
// memory-bound code by 10-40%, in bursts of seconds, and never speed it
// up (an ALU loop does not feel it, so the sentinel cannot correct for
// it). Over 12-second runs of identical code a whole-run mean or
// median moved 13-19% between quartiles in a disturbed hour, the 10th
// percentile of windows 9-14%, the best window 2-7%; in a calm hour all
// three sit near 3%. The best window is the estimate of what the
// program costs when the host leaves it alone, and the only one that
// holds a bound in both kinds of hour.
func (p *phase) timing() (workPerS, latencyP50, cpuPerWork float64) {
	for i, w := range p.windows {
		thr := float64(w.work) / w.dt.Seconds()
		cpu := float64(w.cpu.Nanoseconds()) / 1e3 / float64(w.work)
		if i == 0 || thr > workPerS {
			workPerS = thr
		}
		if i == 0 || w.p50 < latencyP50 {
			latencyP50 = w.p50
		}
		if i == 0 || cpu < cpuPerWork {
			cpuPerWork = cpu
		}
	}
	return workPerS, latencyP50, cpuPerWork
}

// runPhase drives def.clients closed-loop clients over inst until lim
// is reached. With batch > 0, every batch ops of client 0 close one
// window, and before every sentinelEvery-th window client 0 times the
// xorshift sentinel. tr is nil for an untraced phase.
func runPhase(def *workloadDef, inst instance, lim limit, batch int, tr *tracer) *phase {
	capacity := lim.ops
	if capacity == 0 {
		capacity = 1 << 16
	}
	type clientState struct {
		lat      []float64
		work     int64
		failed   int
		firstErr error
		t        *track
	}
	clients := make([]clientState, def.clients)
	for c := range clients {
		clients[c].lat = make([]float64, 0, capacity)
		clients[c].t = tr.newTrack(fmt.Sprintf("client %d", c), 1<<16)
	}
	p := &phase{windows: make([]window, 0, 1024), sentinel: make([]float64, 0, 256)}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if batch > 0 {
		p.sentinel = append(p.sentinel, float64(sentinel().Nanoseconds())/1e3)
	}
	cpu0 := processCPU()
	start := time.Now()

	var next, done atomic.Int64
	var wg sync.WaitGroup
	client := func(c int) {
		defer wg.Done()
		cs := &clients[c]
		var winStart time.Time
		var winCPU time.Duration
		var winWork int64
		for n := 0; ; n++ {
			if c == 0 && batch > 0 && n%batch == 0 {
				if n > 0 {
					p.windows = append(p.windows, window{
						dt:   time.Since(winStart),
						cpu:  processCPU() - winCPU,
						work: done.Load() - winWork,
						p50:  median(cs.lat[len(cs.lat)-batch:]),
					})
					if n/batch%sentinelEvery == 0 {
						p.sentinel = append(p.sentinel, float64(sentinel().Nanoseconds())/1e3)
					}
				}
				winStart, winCPU, winWork = time.Now(), processCPU(), done.Load()
			}
			i := int(next.Add(1) - 1)
			if lim.ops > 0 && i >= lim.ops {
				return
			}
			if lim.duration > 0 && i > 0 && time.Since(start) >= lim.duration {
				return
			}
			opStart := time.Now()
			sp := cs.t.begin("op", i)
			work, err := inst.op(c, i, cs.t)
			cs.t.end(sp)
			cs.lat = append(cs.lat, float64(time.Since(opStart).Nanoseconds())/1e3)
			cs.work += work
			done.Add(work)
			if err != nil {
				cs.failed++
				if cs.firstErr == nil {
					cs.firstErr = fmt.Errorf("op %d: %w", i, err)
				}
			}
		}
	}
	// Client 0 runs here, so it is in the phase from the first op on
	// however short the phase is: the windows are cut from its ops.
	wg.Add(def.clients)
	for c := 1; c < def.clients; c++ {
		go client(c)
	}
	client(0)
	wg.Wait()

	p.wall, p.cpu = time.Since(start), processCPU()-cpu0
	runtime.ReadMemStats(&m1)
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
	p.allocs = m1.Mallocs - m0.Mallocs
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for c := range clients {
		cs := &clients[c]
		p.ops += len(cs.lat)
		p.failed += cs.failed
		p.work += cs.work
		p.lat = append(p.lat, cs.lat...)
		if p.firstErr == nil {
			p.firstErr = cs.firstErr
		}
	}
	if a, ok := inst.(auditor); ok {
		if n := a.audit(); n > 0 {
			p.failed = min(p.ops, p.failed+n)
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("post-phase audit: %d failures", n)
			}
		}
	}
	return p
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed     int64
	ops      int           // fixed op count; 0 = use duration, or the nominal count
	duration time.Duration // measured-phase length; 0 = use ops
	traced   bool
	setups   int // how many times set-up runs (median reported)
	outDir   string
}

// result is everything one run reports.
type result struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Seed      int64              `json:"seed"`
	Clients   int                `json:"clients"`
	Ops       int                `json:"ops"`
	Work      int64              `json:"work"`
	WorkUnit  string             `json:"work_unit"`
	Windows   int                `json:"windows"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Disturbed bool               `json:"disturbed"`
	Host      hostInfo           `json:"host"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	WholeRun  map[string]float64 `json:"whole_run"` // the timing metrics over the whole phase, noise included
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
	FirstErr  string             `json:"first_error,omitempty"`
}

// layerCtx is what instance.layers works from.
type layerCtx struct {
	def      *workloadDef
	untraced *phase
	traced   *phase
	spans    map[string]*spanAgg // every track of the traced instance
	out      map[string]float64
	sideLim  limit
}

// side runs a short untraced-or-traced pass over another instance
// (the same inputs under a different runtime configuration) and
// returns its phase and span aggregates.
func (lc *layerCtx) side(inst instance, traced bool) (*phase, map[string]*spanAgg) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	p := runPhase(lc.def, inst, lc.sideLim, 0, tr)
	if tr == nil {
		return p, nil
	}
	return p, aggregate(tr.tracks...)
}

// run executes one workload per cfg and returns its result.
func run(def *workloadDef, cfg runConfig, host hostInfo) (*result, error) {
	nominal := def.ops
	if cfg.ops > 0 {
		nominal = cfg.ops
	}
	warm := max(1, nominal/20)

	// Set-up, timed: build the instance and run the warm-up ops.
	// Repeated so setup_s is a median, not one sample.
	var inst instance
	var setupTimes []float64
	var warmPhase *phase
	for s := 0; s < max(1, cfg.setups); s++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = def.setup(setupCtx{seed: cfg.seed})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		warmPhase = runPhase(def, inst, limit{ops: warm}, 0, nil)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if warmPhase.failed > 0 {
			inst.close()
			return nil, fmt.Errorf("%s: warm-up: %w", def.name, warmPhase.firstErr)
		}
	}
	defer inst.close()

	// Windows of about windowTarget, sized from the warm-up's op time.
	batch := max(1, int(math.Round(float64(windowTarget.Microseconds())/median(warmPhase.lat))))

	measured := limit{ops: cfg.ops, duration: cfg.duration}
	if measured.ops == 0 && measured.duration == 0 {
		measured.ops = def.ops
	}
	if measured.ops > 0 {
		// A short fixed-count run (tests, quick looks) still needs a
		// few windows.
		batch = min(batch, max(1, measured.ops/(4*def.clients)))
	}
	tracedLim := measured
	sideLim := limit{ops: min(nominal, 50)}
	if cfg.traced && cfg.duration > 0 {
		// A traced invocation must fit the same time cap as an untraced
		// one: the budget is split between the untraced reference, the
		// traced repeat, and the side passes.
		measured.duration = cfg.duration * 35 / 100
		tracedLim.duration = cfg.duration * 35 / 100
		sideLim = limit{ops: 50, duration: cfg.duration * 5 / 100}
	}

	p := runPhase(def, inst, measured, batch, nil)
	if len(p.windows) == 0 {
		return nil, fmt.Errorf("%s: the measured phase (%d ops) is shorter than one window of %d ops", def.name, p.ops, batch)
	}
	workPerS, latencyP50, cpuPerWork := p.timing()
	sentinelSpread := ratio(quantile(p.sentinel, 0.9), quantile(p.sentinel, 0.1))
	res := &result{
		Workload:  def.name,
		Why:       def.why,
		Seed:      cfg.seed,
		Clients:   def.clients,
		Ops:       p.ops,
		Work:      p.work,
		WorkUnit:  def.unit,
		Windows:   len(p.windows),
		Attempted: p.ops,
		Failed:    p.failed,
		FailRatio: float64(p.failed) / float64(p.ops),
		Disturbed: sentinelSpread > 1.10,
		Host:      host,
		EndToEnd: map[string]float64{
			"setup_s":          median(setupTimes),
			"work_per_s":       workPerS,
			"latency_p50_us":   latencyP50,
			"cpu_us_per_work":  cpuPerWork,
			"alloc_b_per_work": float64(p.allocB) / float64(p.work),
			"allocs_per_work":  float64(p.allocs) / float64(p.work),
		},
		WholeRun: map[string]float64{
			"work_per_s":      float64(p.work) / p.wall.Seconds(),
			"latency_p50_us":  median(p.lat),
			"cpu_us_per_work": float64(p.cpu.Nanoseconds()) / 1e3 / float64(p.work),
		},
	}
	if p.firstErr != nil {
		res.FirstErr = p.firstErr.Error()
	}
	if !cfg.traced {
		return res, nil
	}

	// Traced repeat on a fresh instance (a server must be started with
	// the timing decorator injected, so tracing is a set-up property).
	tr := newTracer()
	tinst, err := def.setup(setupCtx{seed: cfg.seed, tr: tr})
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", def.name, err)
	}
	defer tinst.close()
	if wp := runPhase(def, tinst, limit{ops: warm}, 0, nil); wp.failed > 0 {
		return nil, fmt.Errorf("%s: traced warm-up: %w", def.name, wp.firstErr)
	}
	tp := runPhase(def, tinst, tracedLim, 0, tr)
	res.Attempted += tp.ops
	res.Failed += tp.failed

	lc := &layerCtx{
		def:      def,
		untraced: p,
		traced:   tp,
		spans:    aggregate(tr.tracks...),
		out:      map[string]float64{},
		sideLim:  sideLim,
	}
	tinst.layers(lc)
	lc.out["bench.trace_overhead"] = ratio(median(tp.lat), median(p.lat))
	lc.out["go.gc_cycles_per_op"] = float64(p.gcCycles) / float64(p.ops)
	lc.out["go.gc_pause_us_per_op"] = float64(p.gcPause.Nanoseconds()) / 1e3 / float64(p.ops)
	lc.out["host.sentinel_p50_us"] = median(p.sentinel)
	lc.out["host.sentinel_p90_over_p10"] = sentinelSpread
	lc.out["host.gomaxprocs"] = float64(host.GOMAXPROCS)
	res.PerLayer = map[string]float64{}
	for _, m := range perLayer {
		res.PerLayer[m.Name] = lc.out[m.Name] // 0 when the workload does not exercise the layer
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	res.TraceFile = filepath.Join(cfg.outDir, "trace-"+def.name+".json")
	if err := writeChromeTrace(res.TraceFile, tr.tracks); err != nil {
		return nil, fmt.Errorf("%s: writing trace: %w", def.name, err)
	}
	return res, nil
}

// compatible refuses to compare results measured on a different
// number of Ps: par-queens on one core is a different experiment.
func compatible(a, b hostInfo) error {
	if a.GOMAXPROCS != b.GOMAXPROCS {
		return fmt.Errorf("results recorded under GOMAXPROCS %d and %d are not comparable", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	return nil
}
