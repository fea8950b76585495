package difftest

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
)

// CheckSessions is the session-level differential oracle: it runs an
// engine-level case through the Compiled/Session API in every serving
// shape — private engine (the reference), a session over a shared
// Compiled, a pool-recycled session, sessions whose match phase runs on
// the parallel runtime, and K sessions executing concurrently over one
// Compiled — and returns the first divergence, or nil when all agree.
//
// Script-level cases replay raw matcher change lists below the session
// API and are out of scope here (Check covers them); CheckSessions
// returns nil for them.
func CheckSessions(c Case, opts CheckOptions) *Mismatch {
	if c.IsScript() {
		return nil
	}
	opts = opts.withDefaults()
	configs := sessionMatrix(opts)
	var ref *Outcome
	for _, cfg := range configs {
		out := cfg.run(c, opts)
		if opts.ForceDivergence != "" && strings.Contains(cfg.name, opts.ForceDivergence) {
			out.Cycles = append(out.Cycles, "forced divergence ("+cfg.name+")")
		}
		if ref == nil {
			ref = out
			continue
		}
		if d := ref.diff(out); d != "" {
			return &Mismatch{Case: c, Config: cfg.name, Detail: d}
		}
	}
	return nil
}

// sessionConfig is one serving shape under test.
type sessionConfig struct {
	name string
	run  func(c Case, opts CheckOptions) *Outcome
}

// sessionMatrix builds the session-level run matrix. The private
// engine.New path comes first as the reference.
func sessionMatrix(opts CheckOptions) []sessionConfig {
	configs := []sessionConfig{
		{"engine-ref", runPrivateEngine},
		{"shared-session", runSharedSession},
		{"pooled-session", runPooledSession},
		{"concurrent-sessions", runConcurrentSessions},
	}
	workers := opts.Workers
	if len(workers) > 2 {
		workers = workers[:2] // session runs repeat per config; keep the sweep shallow
	}
	for _, w := range workers {
		w := w
		configs = append(configs, sessionConfig{
			name: fmt.Sprintf("parallel-session-w%d", w),
			run: func(c Case, opts CheckOptions) *Outcome {
				return runParallelSession(c, opts, w)
			},
		})
	}
	return configs
}

// compileCase parses and compiles the case's program into a shared
// Compiled.
func compileCase(c Case) (*engine.Compiled, *ops5.Program, string) {
	prog, err := ops5.ParseProgram(c.ProgSrc)
	if err != nil {
		return nil, nil, "parse: " + err.Error()
	}
	compiled, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		return nil, nil, "compile: " + err.Error()
	}
	return compiled, prog, ""
}

// driveSession runs the case's wmes through a session via the public
// API and fingerprints each cycle exactly like runEngine: the fired
// instantiation key plus the sorted post-refraction conflict set.
func driveSession(s engine.API, buf *bytes.Buffer, c Case, opts CheckOptions) *Outcome {
	o := &Outcome{}
	if strings.TrimSpace(c.WMESrc) != "" {
		wmes, err := ops5.ParseWMEs(c.WMESrc)
		if err != nil {
			o.Err = "wmes: " + err.Error()
			return o
		}
		s.Assert(wmes...)
	}
	budget := opts.Budget
	for cycle := 0; cycle < opts.MaxCycles; cycle++ {
		fired, err := s.Step()
		if err != nil {
			o.Err = err.Error()
			break
		}
		cs := s.ConflictSet()
		keys := make([]string, len(cs))
		for i, in := range cs {
			keys[i] = in.Key()
		}
		sort.Strings(keys)
		line := "-"
		if fired != nil {
			line = fired.Key()
		}
		o.Cycles = append(o.Cycles, line+" | "+strings.Join(keys, " "))
		if fired == nil {
			break
		}
		budget -= len(cs)
		if budget < 0 {
			o.Truncated = true
			break
		}
	}
	o.Fired = s.Fired()
	o.Halted = s.Halted()
	if buf != nil {
		o.Output = buf.String()
	}
	for _, w := range s.Snapshot().WMEs {
		o.FinalWM = append(o.FinalWM, fmt.Sprintf("%d:%d:%s", w.ID, w.TimeTag, w))
	}
	return o
}

// runPrivateEngine is the reference: the classic single-tenant
// engine.New path, driven through the same session API.
func runPrivateEngine(c Case, opts CheckOptions) *Outcome {
	prog, err := ops5.ParseProgram(c.ProgSrc)
	if err != nil {
		return &Outcome{Err: "parse: " + err.Error()}
	}
	var buf bytes.Buffer
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{Output: &buf, NBuckets: checkNBuckets})
	if err != nil {
		return &Outcome{Err: "engine: " + err.Error()}
	}
	defer e.Close()
	return driveSession(e, &buf, c, opts)
}

func runSharedSession(c Case, opts CheckOptions) *Outcome {
	compiled, _, errs := compileCase(c)
	if errs != "" {
		return &Outcome{Err: errs}
	}
	var buf bytes.Buffer
	s := compiled.NewSession(engine.SessionOptions{Output: &buf, NBuckets: checkNBuckets})
	defer s.Close()
	return driveSession(s, &buf, c, opts)
}

// runPooledSession proves recycled sessions behave like fresh ones:
// the compared run happens on a session that already executed the full
// case once and went through Put/Get (Reset).
func runPooledSession(c Case, opts CheckOptions) *Outcome {
	compiled, _, errs := compileCase(c)
	if errs != "" {
		return &Outcome{Err: errs}
	}
	var buf bytes.Buffer
	pool := engine.NewSessionPool(compiled, engine.SessionOptions{Output: &buf, NBuckets: checkNBuckets})
	warm := pool.Get()
	driveSession(warm, nil, c, opts) // dirty the session
	pool.Put(warm)
	buf.Reset()
	s := pool.Get() // same session, recycled
	defer s.Close()
	return driveSession(s, &buf, c, opts)
}

// runParallelSession runs the session's match phase on the goroutine
// runtime over the shared compiled network.
func runParallelSession(c Case, opts CheckOptions, workers int) *Outcome {
	compiled, _, errs := compileCase(c)
	if errs != "" {
		return &Outcome{Err: errs}
	}
	rt, err := parallel.New(compiled.Network(), parallel.Options{
		Workers:   workers,
		NBuckets:  checkNBuckets,
		ChaosSeed: opts.ChaosSeed,
		Metrics:   opts.Metrics,
	})
	if err != nil {
		return &Outcome{Err: "parallel: " + err.Error()}
	}
	var buf bytes.Buffer
	s := compiled.NewSession(engine.SessionOptions{Output: &buf, Matcher: rt})
	defer s.Close() // closes rt via the matcherCloser hook
	return driveSession(s, &buf, c, opts)
}

// runConcurrentSessions runs the case on several sessions over ONE
// Compiled at the same time. All runs must agree with each other (an
// internal divergence is reported through Err) and, via the caller's
// diff against the reference, with the private engine.
func runConcurrentSessions(c Case, opts CheckOptions) *Outcome {
	compiled, _, errs := compileCase(c)
	if errs != "" {
		return &Outcome{Err: errs}
	}
	const k = 4
	outs := make([]*Outcome, k)
	bufs := make([]bytes.Buffer, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := compiled.NewSession(engine.SessionOptions{Output: &bufs[i], NBuckets: checkNBuckets})
			defer s.Close()
			outs[i] = driveSession(s, &bufs[i], c, opts)
		}()
	}
	wg.Wait()
	for i := 1; i < k; i++ {
		if d := outs[0].diff(outs[i]); d != "" {
			return &Outcome{Err: fmt.Sprintf("concurrent session %d diverged from session 0: %s", i, d)}
		}
	}
	return outs[0]
}
