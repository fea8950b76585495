// Command ops5run executes an OPS5 program under the match-resolve-act
// interpreter — sequentially, or with the match phase on the real
// parallel runtime (-parallel) — optionally recording a hash-table
// activity trace for the MPC simulator, or the parallel matcher's flight
// recording as a wall-clock Chrome trace (-timeline) and as JSON
// (-flight-dump): two formats of one recording.
//
// Usage:
//
//	ops5run -program rules.ops5 -wmes initial.wmes [-cycles 1000]
//	        [-strategy lex|mea] [-trace out.trace] [-v]
//	ops5run -workload rubik-like -v
//	ops5run -workload chain -variant bounded -v
//	ops5run -program rules.ops5 -parallel 4 -timeline out.json
//	ops5run -program rules.ops5 -parallel 4 -route-roots
//	ops5run -program rules.ops5 -parallel 4 -debug-addr localhost:6060
//
// With -transport tcp the match phase runs on separate worker
// processes: ops5run becomes the control process, listens on -listen,
// and waits for -parallel ops5worker processes to dial in before the
// first cycle:
//
//	ops5run -workload rubik-like -parallel 4 -transport tcp -listen 127.0.0.1:7465
//	ops5worker -addr 127.0.0.1:7465   (x4, in other terminals)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpcrete/internal/engine"
	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/trace"
	"mpcrete/internal/transport"
	"mpcrete/internal/workloads"
)

func main() {
	programPath := flag.String("program", "", "OPS5 program file (required)")
	wmePath := flag.String("wmes", "", "initial working-memory file")
	cycles := flag.Int("cycles", 10000, "cycle limit")
	strategy := flag.String("strategy", "lex", "conflict resolution: lex or mea")
	tracePath := flag.String("trace", "", "write the hash-table activity trace here")
	nbuckets := flag.Int("buckets", 0, "hash-table buckets (power of two; default 1024)")
	verbose := flag.Bool("v", false, "print summary statistics")
	watch := flag.Int("watch", 0, "OPS5 watch level: 1 = firings, 2 = + wme changes")
	dotPath := flag.String("dot", "", "write the compiled Rete network as Graphviz DOT here")
	par := flag.Int("parallel", 0, "run the match phase on the parallel runtime with this many workers")
	routeRoots := flag.Bool("route-roots", false, "hash-route root activations from the control goroutine (Fig 3-2) instead of broadcasting changes (requires -parallel)")
	timelinePath := flag.String("timeline", "", "write the parallel run's flight recording as a wall-clock Chrome trace here (requires -parallel)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar (live runtime stats) on this address")
	workloadName := flag.String("workload", "", "built-in workload name (alternative to -program/-wmes; see internal/workloads)")
	variant := flag.String("variant", "shared", "network variant: "+strings.Join(rete.Variants(), ", "))
	transportName := flag.String("transport", "inproc", "parallel message plane: inproc (goroutine mailboxes) or tcp (multi-process; match workers are separate ops5worker processes)")
	listenAddr := flag.String("listen", "127.0.0.1:0", "control listen address for -transport tcp")
	rebalance := flag.Float64("rebalance", 0, "arm the online adaptive repartitioner at this max/mean imbalance threshold, e.g. 1.3 (0 = off; requires -parallel)")
	rebalanceInterval := flag.Int("rebalance-interval", 0, "minimum cycles between adaptive migrations (0 = default)")
	migrateEvery := flag.Int("migrate-every", 0, "force a full partition rotation every N cycles (0 = off; migration stress knob, requires -parallel)")
	flightPath := flag.String("flight-dump", "", "write the parallel run's causal flight dump (JSON) here (requires -parallel)")
	flag.Parse()

	var src, wsrc string
	var traceName string
	switch {
	case *workloadName != "" && *programPath != "":
		fatal("workload", fmt.Errorf("-workload and -program are mutually exclusive"))
	case *workloadName != "":
		wl, err := workloads.Named(*workloadName)
		fatal("workload", err)
		src, wsrc = wl.Program, wl.WMEs
		traceName = *workloadName
	case *programPath != "":
		b, err := os.ReadFile(*programPath)
		fatal("read program", err)
		src = string(b)
		traceName = strings.TrimSuffix(*programPath, ".ops5")
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *wmePath != "" {
		b, err := os.ReadFile(*wmePath)
		fatal("read wmes", err)
		wsrc = string(b)
	}
	prog, err := ops5.ParseProgram(src)
	fatal("parse program", err)

	if *nbuckets != 0 && !rete.ValidNBuckets(*nbuckets) {
		fatal("buckets", fmt.Errorf("-buckets %d is not a power of two", *nbuckets))
	}
	opts := engine.SessionOptions{Output: os.Stdout, NBuckets: *nbuckets, Watch: *watch}
	switch strings.ToLower(*strategy) {
	case "lex":
		opts.Strategy = engine.LEX
	case "mea":
		opts.Strategy = engine.MEA
	default:
		fatal("strategy", fmt.Errorf("unknown strategy %q", *strategy))
	}

	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.NewRecorder(traceName, *nbuckets)
		opts.Listener = rec
	}

	if *par <= 0 {
		// Each of these acts on the parallel match runtime only; without
		// -parallel it would be silently ignored.
		for _, f := range []struct {
			name string
			set  bool
			does string
		}{
			{"timeline", *timelinePath != "", "records the parallel matcher"},
			{"route-roots", *routeRoots, "selects the parallel runtime's root delivery"},
			{"flight-dump", *flightPath != "", "records the parallel matcher"},
			{"transport", *transportName == "tcp", "tcp runs the match phase in worker processes"},
			{"rebalance", *rebalance != 0, "arms the parallel runtime's repartitioner"},
			{"rebalance-interval", *rebalanceInterval != 0, "paces the parallel runtime's repartitioner"},
			{"migrate-every", *migrateEvery != 0, "rotates the parallel runtime's partition"},
		} {
			if f.set {
				fatal(f.name, fmt.Errorf("-%s %s; add -parallel N", f.name, f.does))
			}
		}
	}
	if *rebalanceInterval != 0 && *rebalance <= 0 {
		fatal("rebalance-interval", fmt.Errorf("-rebalance-interval paces -rebalance; add -rebalance THRESHOLD"))
	}
	// One network: the session conforms wmes to it and excises from it,
	// and any parallel runtime matches over it.
	net, err := rete.CompileVariant(prog.Productions, *variant)
	fatal("compile", err)
	// drv is the parallel match phase's cycle driver, whichever carrier
	// (goroutines or worker processes) runs under it; nil when sequential.
	var drv *parallel.Driver
	if *par > 0 {
		if *tracePath != "" {
			fatal("parallel", fmt.Errorf("-trace requires the sequential matcher (the recorder hooks rete.Matcher)"))
		}
		nb := *nbuckets
		if nb == 0 {
			nb = rete.DefaultNBuckets
		}
		var causal *obs.CausalRecorder
		if *flightPath != "" || *timelinePath != "" {
			causal = parallel.NewFlightRecorder(*par, 0, 0, nb)
		}
		var reb sched.Rebalance
		if *rebalance > 0 {
			reb = sched.DefaultRebalance()
			reb.Threshold = *rebalance
			if *rebalanceInterval > 0 {
				reb.MinInterval = *rebalanceInterval
			}
		}
		var forceMigrate func(cycle int) sched.Partition
		if *migrateEvery > 0 {
			every, workers := *migrateEvery, *par
			forceMigrate = func(cycle int) sched.Partition {
				if cycle%every != 0 {
					return nil
				}
				p := make(sched.Partition, nb)
				for b := range p {
					p[b] = (b + cycle/every) % workers
				}
				return p
			}
		}
		switch *transportName {
		case "inproc":
			rt, err := parallel.New(net, parallel.Options{
				Workers:      *par,
				NBuckets:     *nbuckets,
				RouteRoots:   *routeRoots,
				Causal:       causal,
				Rebalance:    reb,
				ForceMigrate: forceMigrate,
			})
			fatal("parallel runtime", err)
			defer rt.Close()
			drv = rt.Driver
		case "tcp":
			for _, p := range prog.Productions {
				for _, a := range p.RHS {
					if a.Kind == ops5.ActExcise {
						fatal("transport", fmt.Errorf("-transport tcp: production %s excises %s, but each ops5worker compiles its own network, which no excise reaches; use -transport inproc", p.Name, a.Class))
					}
				}
			}
			ctl, err := transport.Listen(net, *listenAddr, transport.ControlOptions{
				Workers:      *par,
				NBuckets:     *nbuckets,
				RouteRoots:   *routeRoots,
				Causal:       causal,
				Rebalance:    reb,
				ForceMigrate: forceMigrate,
			})
			fatal("control listen", err)
			defer ctl.Close()
			fmt.Fprintf(os.Stderr, "ops5run: control listening on %s; waiting for %d ops5worker processes\n", ctl.Addr(), *par)
			fatal("worker handshake", ctl.WaitWorkers())
			fmt.Fprintf(os.Stderr, "ops5run: %d workers connected\n", *par)
			drv = ctl.Driver
		default:
			fatal("transport", fmt.Errorf("unknown transport %q (inproc or tcp)", *transportName))
		}
		opts.Matcher = drv
	}

	if *debugAddr != "" {
		snapshots := map[string]func() any{}
		if drv != nil {
			snapshots["runtime"] = func() any { return drv.Stats() }
		}
		addr, stop, err := obs.ServeDebug(*debugAddr, snapshots)
		fatal("debug server", err)
		defer stop()
		fmt.Fprintf(os.Stderr, "ops5run: debug server on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}

	e, err := engine.NewWithNetwork(prog, net, opts)
	fatal("compile", err)

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		fatal("create dot", err)
		fatal("write dot", rete.WriteDOT(f, e.Network()))
		fatal("close dot", f.Close())
	}

	if wsrc != "" {
		wmes, err := ops5.ParseWMEs(wsrc)
		fatal("parse wmes", err)
		e.InsertWMEs(wmes...)
	}

	fired, err := e.Run(*cycles)
	if err == engine.ErrCycleLimit {
		fmt.Fprintf(os.Stderr, "ops5run: cycle limit %d reached\n", *cycles)
	} else {
		fatal("run", err)
	}

	if *verbose {
		s := e.Network().Stats()
		fmt.Fprintf(os.Stderr, "ops5run: %d productions, %d alpha patterns, %d joins, %d negatives, %d bounded collectors\n",
			len(prog.Productions), s.AlphaPatterns, s.JoinNodes, s.NegativeNodes, s.BoundedNodes)
		fmt.Fprintf(os.Stderr, "ops5run: fired %d, wm size %d, halted %v\n", fired, e.WMCount(), e.Halted())
		if drv != nil {
			st := drv.Stats()
			for w, n := range st.Processed {
				fmt.Fprintf(os.Stderr, "ops5run: worker %d: %d activations, %d messages sent\n",
					w, n, st.MsgsSent[w])
			}
			if *transportName == "inproc" {
				fmt.Fprintf(os.Stderr, "ops5run: %d cycles in place, %d handed off\n", st.InPlace, st.HandedOff)
			}
			if *rebalance > 0 || *migrateEvery > 0 {
				migs, buckets, entries := drv.RebalanceStats()
				fmt.Fprintf(os.Stderr, "ops5run: %d migrations moved %d buckets (%d memory entries)\n",
					migs, buckets, entries)
			}
		}
	}
	if *flightPath != "" {
		f, err := os.Create(*flightPath)
		fatal("create flight dump", err)
		fatal("write flight dump", drv.FlightDump().WriteJSON(f))
		fatal("close flight dump", f.Close())
		if *verbose {
			fmt.Fprintf(os.Stderr, "ops5run: flight dump written to %s\n", *flightPath)
		}
	}
	if *timelinePath != "" {
		f, err := os.Create(*timelinePath)
		fatal("create timeline", err)
		fatal("write timeline", drv.FlightDump().WriteChromeTrace(f))
		fatal("close timeline", f.Close())
		if *verbose {
			fmt.Fprintf(os.Stderr, "ops5run: timeline written to %s (open at https://ui.perfetto.dev)\n", *timelinePath)
		}
	}
	if rec != nil {
		f, err := os.Create(*tracePath)
		fatal("create trace", err)
		fatal("encode trace", trace.Encode(f, rec.Trace()))
		fatal("close trace", f.Close())
		if *verbose {
			fmt.Fprintf(os.Stderr, "ops5run: %s\n", rec.Trace())
		}
	}
}

func fatal(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ops5run: %s: %v\n", what, err)
		os.Exit(1)
	}
}
