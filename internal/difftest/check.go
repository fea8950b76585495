package difftest

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"

	"mpcrete/internal/engine"
	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/transport"
)

// checkNBuckets is the hash-space size every configuration runs with.
// Small enough that a handful of wmes spreads across several workers,
// large enough to exercise the partition map.
const checkNBuckets = 64

// CheckOptions tune the differential run matrix.
type CheckOptions struct {
	// MaxCycles caps engine-level runs (default 50); hitting the cap is
	// itself a compared outcome, so non-terminating generated programs
	// still check cleanly.
	MaxCycles int
	// Workers lists the parallel worker counts to test (default
	// {1, 2, 4, 8}); each runs in both broadcast and routed-roots mode.
	Workers []int
	// ChaosSeed, when non-zero, enables the parallel runtime's chaos
	// scheduling layer for every parallel configuration.
	ChaosSeed int64
	// Budget caps the total conflict-set size summed over cycles
	// (default 50000). The cap cuts off cross-product explosions
	// deterministically: every configuration truncates at the same
	// cycle, so truncated runs still compare exactly.
	Budget int
	// Metrics, when non-nil, is handed to every parallel runtime (soak
	// runs aggregate parallel.dropped_post_close across the whole run).
	Metrics *obs.Registry
	// FlightCycles, when > 0, attaches a flight recorder retaining that
	// many cycles of causal trace to every parallel configuration; a
	// divergence then carries the diverging run's dump (Mismatch.Dump)
	// for post-mortem analysis next to the shrunk repro.
	FlightCycles int
	// ForceDivergence, when non-empty, artificially perturbs the
	// outcome of every configuration whose name contains the substring.
	// It exists to drill the divergence-reporting path end to end
	// (shrink, repro file, flight dump) without needing a real bug.
	ForceDivergence string
	// TCP, when true, adds the star carrier to the matrix (tcp-*): a
	// transport.Control and worker protocol loops on local TCP
	// connections, run in this process by transport.Loopback — every
	// message through the frame codec and a real socket. Off by default
	// — each configuration opens real sockets per case, which is too
	// slow for the fuzzing inner loop.
	TCP bool
	// Rebalance, when true, adds the migration configurations to the
	// matrix: every multi-worker count in both message-plane modes with
	// the online adaptive rebalancer armed hair-trigger from a
	// pathological all-on-worker-0 assignment (adapt-*), and with a
	// forced full-rotation schedule that moves every bucket at every
	// cycle boundary (migrate-*). With TCP also set, the same two
	// schedules run over the star (tcpadapt-*, tcpmigrate-*). ChaosSeed
	// composes: chaos scheduling applies to the in-process migration
	// configurations like any other parallel run.
	Rebalance bool
}

func (o CheckOptions) withDefaults() CheckOptions {
	if o.MaxCycles <= 0 {
		o.MaxCycles = 50
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4, 8}
	}
	if o.Budget <= 0 {
		o.Budget = 50000
	}
	return o
}

// Outcome is everything observable about one configuration's run,
// normalized for comparison.
type Outcome struct {
	// Cycles holds one fingerprint line per cycle. Engine-level: the
	// fired instantiation key plus the sorted post-refraction conflict
	// set. Script-level: the sorted netted deltas plus the resulting
	// conflict set.
	Cycles []string
	// FinalWM is the final working memory, one sorted line per wme
	// (engine-level only).
	FinalWM []string
	// Output is the accumulated write-action text (engine-level only).
	Output string
	Fired  int
	Halted bool
	// Err records a deterministic interpreter error (e.g. cycle limit);
	// errors must reproduce identically across configurations.
	Err string
	// Truncated is set when the Budget cut the run short.
	Truncated bool
	// Panic is a recovered panic's value and stack. A panic is a fault
	// in any row, the reference included, so diff and checkConfigs
	// report it even when every row panicked the same way.
	Panic string
	// Dump is the run's causal flight dump (parallel configurations
	// with CheckOptions.FlightCycles set; nil otherwise). It is
	// post-mortem context, not compared state.
	Dump *obs.FlightDump
}

// diff returns a description of the first difference from o to other,
// or "" when equal. A panic, then a differing error, come before the
// cycles: a run that failed stops short, and its error says why.
func (o *Outcome) diff(other *Outcome) string {
	if o.Panic != "" || other.Panic != "" {
		return fmt.Sprintf("panic:\n  ref: %s\n  got: %s", o.Panic, other.Panic)
	}
	if o.Err != other.Err {
		return fmt.Sprintf("err: ref %q, got %q", o.Err, other.Err)
	}
	for i := 0; i < len(o.Cycles) && i < len(other.Cycles); i++ {
		if o.Cycles[i] != other.Cycles[i] {
			return fmt.Sprintf("cycle %d:\n  ref: %s\n  got: %s", i, o.Cycles[i], other.Cycles[i])
		}
	}
	if len(o.Cycles) != len(other.Cycles) {
		return fmt.Sprintf("cycle count: ref %d, got %d", len(o.Cycles), len(other.Cycles))
	}
	for i := 0; i < len(o.FinalWM) && i < len(other.FinalWM); i++ {
		if o.FinalWM[i] != other.FinalWM[i] {
			return fmt.Sprintf("final wm[%d]: ref %s, got %s", i, o.FinalWM[i], other.FinalWM[i])
		}
	}
	if len(o.FinalWM) != len(other.FinalWM) {
		return fmt.Sprintf("final wm size: ref %d, got %d", len(o.FinalWM), len(other.FinalWM))
	}
	switch {
	case o.Output != other.Output:
		return fmt.Sprintf("write output: ref %q, got %q", o.Output, other.Output)
	case o.Fired != other.Fired:
		return fmt.Sprintf("fired: ref %d, got %d", o.Fired, other.Fired)
	case o.Halted != other.Halted:
		return fmt.Sprintf("halted: ref %v, got %v", o.Halted, other.Halted)
	case o.Truncated != other.Truncated:
		return fmt.Sprintf("truncated: ref %v, got %v", o.Truncated, other.Truncated)
	}
	return ""
}

// Mismatch reports a divergence between the sequential reference and
// one configuration.
type Mismatch struct {
	Case   Case
	Config string
	Detail string
	// Dump is the diverging run's flight-recorder dump when the
	// configuration was instrumented (CheckOptions.FlightCycles > 0 and
	// a parallel configuration diverged); nil otherwise.
	Dump *obs.FlightDump
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("difftest: case %s: %s diverges from sequential reference: %s", m.Case.Name, m.Config, m.Detail)
}

// built is one configuration's instantiated match machinery. finish,
// when non-nil, checks what the run left behind once it is over — a
// parallel row's shutdown (a star row's worker loop errors reach the
// runtime's Err there), the traced row's replay through the simulator
// — and its error becomes the outcome's. dump snapshots the run's
// flight recorder (legal once the run is quiescent; nil result when
// CheckOptions.FlightCycles is 0).
type built struct {
	net     *rete.Network
	matcher engine.MatchApplier
	finish  func() error
	dump    func() *obs.FlightDump
}

// config is one row of the matrix. A matcher row builds its match
// implementation over a freshly compiled network (build); the sessions
// row drives whole sessions itself (run). An engineOnly row is skipped
// for script cases.
type config struct {
	name       string
	build      func(prods []*ops5.Production, opts CheckOptions) (built, error)
	run        func(prog *ops5.Program, c Case, opts CheckOptions) *Outcome
	engineOnly bool
}

// seqBuild builds the sequential matcher over a network variant — one
// of rete.Variants(), the spelling of the ops5run/ops5d -variant flag —
// with the given memory size.
func seqBuild(variant string, nbuckets int) func([]*ops5.Production, CheckOptions) (built, error) {
	return func(prods []*ops5.Production, _ CheckOptions) (built, error) {
		net, err := rete.CompileVariant(prods, variant)
		if err != nil {
			return built{}, err
		}
		return built{net: net, matcher: rete.NewMatcher(net, rete.MatcherOptions{NBuckets: nbuckets})}, nil
	}
}

// seqConfig is a sequential-matcher configuration over a network
// variant.
func seqConfig(variant string) config {
	name := "seq"
	if variant != "shared" {
		name = "seq-" + variant
	}
	return config{name: name, build: seqBuild(variant, checkNBuckets)}
}

// seqLinear is the sequential matcher over the shared network with
// linear memories (one bucket): the only row whose answer does not
// depend on rete.HashKey. Every other row hashes with the same
// function, so a key that separates two Equal values makes them all
// miss the same join and agree; this row still finds it.
var seqLinear = config{name: "seq-linear", build: seqBuild("shared", 1)}

// carrier names what moves a parallel configuration's messages.
type carrier int

const (
	// inProc is the goroutine runtime over its in-process mailboxes.
	inProc carrier = iota
	// star is the multi-process control plane run in this process by
	// transport.Loopback: a transport.Control hub with worker protocol
	// loops served over local TCP connections — the same frames ops5run
	// -transport tcp and ops5worker exchange as separate OS processes.
	star
)

// schedule names a migration schedule. Every schedule must produce
// conflict sets identical to the static sequential reference —
// migration moves state, never match semantics.
type schedule int

const (
	static schedule = iota
	// adapt arms the online rebalancer hair-trigger from an
	// all-on-worker-0 assignment: any imbalance above 1% replans
	// immediately, so the skewed start guarantees mid-run migrations on
	// any case with a few activations.
	adapt
	// migrate forces a full rotation at every cycle boundary, so every
	// bucket (and every resident token) changes owner between every pair
	// of cycles.
	migrate
)

// apply sets the schedule's fields on a runtime's options.
func (sch schedule) apply(o *parallel.Options) {
	switch sch {
	case adapt:
		o.Partition = make(sched.Partition, checkNBuckets) // every bucket on worker 0
		o.Rebalance = sched.Rebalance{Threshold: 1.01, MinInterval: 1}
	case migrate:
		workers := o.Workers
		o.ForceMigrate = func(cycle int) sched.Partition {
			p := make(sched.Partition, checkNBuckets)
			for b := range p {
				p[b] = (b + cycle) % workers
			}
			return p
		}
	}
}

// runtimeConfig is a parallel configuration: what carries the messages,
// the migration schedule, worker count, message-plane mode, and network
// variant. Chaos scheduling exists only in the goroutine workers' own
// mailbox loop, so only inProc rows take the seed.
func runtimeConfig(c carrier, sch schedule, workers int, routed bool, variant string) config {
	kind := [...]string{inProc: "", star: "tcp"}[c] +
		[...]string{static: "", adapt: "adapt", migrate: "migrate"}[sch]
	if kind == "" {
		kind = "par"
	}
	mode := "bcast"
	if routed {
		mode = "routed"
	}
	name := fmt.Sprintf("%s-w%d-%s", kind, workers, mode)
	if variant != "shared" {
		name += "-" + variant
	}
	return config{name: name, build: func(prods []*ops5.Production, opts CheckOptions) (built, error) {
		net, err := rete.CompileVariant(prods, variant)
		if err != nil {
			return built{}, err
		}
		popts := parallel.Options{Workers: workers, NBuckets: checkNBuckets, RouteRoots: routed, Metrics: opts.Metrics}
		sch.apply(&popts)
		if opts.FlightCycles > 0 {
			// A small ring suffices: generated cases are tiny and the
			// recorder exists to explain the last few cycles before a
			// divergence.
			popts.Causal = parallel.NewFlightRecorder(workers, 2048, opts.FlightCycles, checkNBuckets)
		}
		if c == star {
			popts.Transport = transport.NewLoopback(net)
		} else {
			popts.ChaosSeed = opts.ChaosSeed
		}
		rt, err := parallel.New(net, popts)
		if err != nil {
			return built{}, err
		}
		return built{net: net, matcher: rt, dump: rt.FlightDump, finish: func() error {
			rt.Close()
			if err := rt.Err(); err != nil {
				return fmt.Errorf("close: %w", err)
			}
			return nil
		}}, nil
	}}
}

// configMatrix is the full run matrix: the sequential reference comes
// first, then the same network recorded and replayed through the
// simulator, on linear memories, the sequential network variants and
// the serving shapes; then the parallel sweep over worker counts and
// both message-plane modes, and cross-variant parallel runs (a routed
// copy-and-constraint runtime is the paper's Fig 3-2 machine executing
// a Section 5.2.2 network). With opts.TCP the wire-transport
// configurations join the matrix in both modes, and with
// opts.Rebalance the migration schedules.
func configMatrix(opts CheckOptions) []config {
	configs := []config{
		seqConfig("shared"),
		seqTraced,
		seqLinear,
		seqConfig("unshared"),
		seqConfig("candc"),
		seqConfig("bounded"),
		sessions,
	}
	for _, w := range opts.Workers {
		configs = append(configs, runtimeConfig(inProc, static, w, false, "shared"), runtimeConfig(inProc, static, w, true, "shared"))
	}
	first, cross := opts.Workers[0], opts.Workers[len(opts.Workers)-1]
	configs = append(configs,
		runtimeConfig(inProc, static, cross, false, "unshared"),
		runtimeConfig(inProc, static, cross, true, "candc"),
		runtimeConfig(inProc, static, first, false, "bounded"),
		runtimeConfig(inProc, static, cross, true, "bounded"),
	)
	if opts.TCP {
		configs = append(configs, runtimeConfig(star, static, 2, false, "shared"), runtimeConfig(star, static, 2, true, "shared"))
	}
	if opts.Rebalance {
		for _, w := range opts.Workers {
			if w < 2 {
				continue // migration between one worker is vacuous
			}
			configs = append(configs,
				runtimeConfig(inProc, adapt, w, false, "shared"), runtimeConfig(inProc, adapt, w, true, "shared"),
				runtimeConfig(inProc, migrate, w, false, "shared"), runtimeConfig(inProc, migrate, w, true, "shared"),
			)
		}
		if opts.TCP {
			configs = append(configs,
				runtimeConfig(star, adapt, 2, false, "shared"), runtimeConfig(star, adapt, 2, true, "shared"),
				runtimeConfig(star, migrate, 2, false, "shared"), runtimeConfig(star, migrate, 2, true, "shared"),
			)
		}
	}
	return configs
}

// Check runs the case through every configuration — for a script
// case, every one that is not engineOnly — and returns the first
// divergence from the sequential shared reference, or nil when all
// agree. Each configuration re-parses the case from source, so the
// printer→parser round trip is itself under test on every call.
func Check(c Case, opts CheckOptions) *Mismatch {
	opts = opts.withDefaults()
	return checkConfigs(c, configMatrix(opts), opts)
}

// checkConfigs is Check over the given rows; the first row that runs
// is the reference.
func checkConfigs(c Case, configs []config, opts CheckOptions) *Mismatch {
	var ref *Outcome
	for _, cfg := range configs {
		if cfg.engineOnly && c.IsScript() {
			continue
		}
		out := runConfig(c, cfg, opts)
		if opts.ForceDivergence != "" && strings.Contains(cfg.name, opts.ForceDivergence) {
			out.Cycles = append(out.Cycles, "forced divergence ("+cfg.name+")")
		}
		if ref == nil {
			if out.Panic != "" {
				return &Mismatch{Case: c, Config: cfg.name, Detail: "the reference panicked: " + out.Panic, Dump: out.Dump}
			}
			ref = out
			continue
		}
		if d := ref.diff(out); d != "" {
			return &Mismatch{Case: c, Config: cfg.name, Detail: d, Dump: out.Dump}
		}
	}
	return nil
}

// runConfig executes the case under one configuration. Build or parse
// errors become outcome errors, so a variant that rejects a program
// every other variant accepts shows up as a divergence.
func runConfig(c Case, cfg config, opts CheckOptions) *Outcome {
	prog, err := ops5.ParseProgram(c.ProgSrc)
	if err != nil {
		return &Outcome{Err: "parse: " + err.Error()}
	}
	if cfg.run != nil {
		return cfg.run(prog, c, opts)
	}
	b, err := cfg.build(prog.Productions, opts)
	if err != nil {
		return &Outcome{Err: "build: " + err.Error()}
	}
	var out *Outcome
	func() {
		// A parallel runtime's failed cycle panics (parallel.Driver.Apply:
		// the matcher interface has no error path). The panic is kept,
		// stack and all, as the row's outcome, which Check always reports,
		// and the runtime is still finished below.
		defer func() {
			if r := recover(); r != nil {
				out = &Outcome{Panic: fmt.Sprintf("%v\n%s", r, debug.Stack())}
			}
		}()
		if c.IsScript() {
			out = runScript(c, b.matcher, opts)
			return
		}
		var buf bytes.Buffer
		e, err := engine.NewWithNetwork(prog, b.net, engine.SessionOptions{Matcher: b.matcher, Output: &buf})
		if err != nil {
			out = &Outcome{Err: "engine: " + err.Error()}
			return
		}
		out = drive(e, &buf, c, opts)
	}()
	if b.dump != nil {
		// The run is quiescent here (between Apply calls), so the
		// snapshot is race-free; taken before finish so a closed
		// runtime never surprises the recorder.
		out.Dump = b.dump()
	}
	if b.finish != nil {
		// What finish finds (a worker loop that died on a bad frame, a
		// simulator that lost work) is an outcome the sequential
		// reference never has: a divergence.
		if err := b.finish(); err != nil && out.Err == "" {
			out.Err = err.Error()
		}
	}
	return out
}

// drive runs the case's wmes through a session and the full
// match-resolve-act loop, fingerprinting each cycle's fired
// instantiation and post-refraction conflict set, and capturing the
// final working memory and the write output the session sends to buf.
func drive(s engine.API, buf *bytes.Buffer, c Case, opts CheckOptions) *Outcome {
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
	o.Output = buf.String()
	for _, w := range s.Snapshot().WMEs {
		o.FinalWM = append(o.FinalWM, fmt.Sprintf("%d:%d:%s", w.ID, w.TimeTag, w))
	}
	return o
}

// runScript replays the scripted change lists straight through the
// matcher, fingerprinting each cycle's netted deltas and the running
// conflict set. IDs and time tags are assigned in script order, so
// every configuration sees byte-identical changes.
func runScript(c Case, matcher engine.MatchApplier, opts CheckOptions) *Outcome {
	o := &Outcome{}
	var added []*ops5.WME
	conflict := map[string]bool{}
	budget := opts.Budget
	for _, cyc := range c.Script {
		var changes []rete.Change
		for _, op := range cyc {
			if op.Remove > 0 {
				changes = append(changes, rete.Change{Tag: rete.Delete, WME: added[op.Remove-1]})
				continue
			}
			w := op.WME.Clone()
			w.ID = len(added) + 1
			w.TimeTag = w.ID
			added = append(added, w)
			changes = append(changes, rete.Change{Tag: rete.Add, WME: w})
		}
		// Net the raw deltas per key before fingerprinting: the
		// sequential matcher reports transients (an instantiation added
		// and deleted within one phase) that the parallel runtime nets
		// away, and only the net effect is meaningful.
		deltas := matcher.Apply(changes)
		counts := map[string]int{}
		for _, ic := range deltas {
			if ic.Tag == rete.Add {
				counts[ic.Key()]++
			} else {
				counts[ic.Key()]--
			}
		}
		var parts []string
		for k, n := range counts {
			switch {
			case n > 0:
				parts = append(parts, "+"+k)
				conflict[k] = true
			case n < 0:
				parts = append(parts, "-"+k)
				delete(conflict, k)
			}
		}
		sort.Strings(parts)
		cs := make([]string, 0, len(conflict))
		for k := range conflict {
			cs = append(cs, k)
		}
		sort.Strings(cs)
		o.Cycles = append(o.Cycles, strings.Join(parts, " ")+" | "+strings.Join(cs, " "))
		// Budget counts netted deltas so every configuration truncates
		// at the same cycle (raw counts differ between matchers).
		budget -= len(parts)
		if budget < 0 {
			o.Truncated = true
			break
		}
	}
	return o
}
