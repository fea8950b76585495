// Command mpcsim replays a hash-table activity trace against the
// message-passing-computer model and reports timing, speedup, and
// distribution statistics.
//
// Usage:
//
//	mpcsim -trace rubik.trace -procs 16
//	mpcsim -trace rubik.trace -procs 32 -overhead run3
//	mpcsim -trace rubik.trace -procs 16 -partition greedy-per-cycle -dist
//	mpcsim -trace rubik.trace -procs 8 -pairs
//	mpcsim -trace rubik.trace -procs 16 -timeline out.json -metrics out.csv -v
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpcrete/internal/core"
	"mpcrete/internal/experiments"
	"mpcrete/internal/obs"
	"mpcrete/internal/sched"
	"mpcrete/internal/simnet"
	"mpcrete/internal/stats"
	"mpcrete/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "trace file (required)")
	procs := flag.Int("procs", 16, "match processors (partition slots)")
	overhead := flag.String("overhead", "run1", "overhead setting: run1..run4, or custom with -send/-recv")
	send := flag.Float64("send", -1, "send overhead in µs (overrides -overhead)")
	recv := flag.Float64("recv", -1, "receive overhead in µs (overrides -overhead)")
	latency := flag.Float64("latency", 0.5, "network latency in µs")
	partition := flag.String("partition", "round-robin", "bucket distribution: "+strings.Join(sched.StrategyNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the random partition")
	pairs := flag.Bool("pairs", false, "use the Fig 3-2 processor-pair mapping")
	topology := flag.String("topology", "", "distance model: crossbar, mesh, hypercube, ring (default: distance-insensitive)")
	perhop := flag.Float64("perhop", 0, "added transit time per hop in µs")
	central := flag.Bool("central", false, "centralized constant tests (ablation)")
	swbcast := flag.Bool("swbcast", false, "software (serialized) broadcast")
	dist := flag.Bool("dist", false, "print per-processor left-activation distribution per cycle")
	timeline := flag.String("timeline", "", "write the run's flight recording as a Chrome trace-event timeline (open in Perfetto) here")
	metrics := flag.String("metrics", "", "write the run's metrics here (.json extension for JSON, CSV otherwise)")
	verbose := flag.Bool("v", false, "print a per-cycle summary (activations, messages, time)")
	flag.Parse()

	if *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*tracePath)
	fatal(err)
	tr, err := trace.Decode(f)
	fatal(err)
	fatal(f.Close())

	var opts []core.Option
	opts = append(opts, core.WithLatency(simnet.US(*latency)))
	if *pairs {
		opts = append(opts, core.WithPairs())
	}
	if *central {
		opts = append(opts, core.WithCentralRoots())
	}
	if *swbcast {
		opts = append(opts, core.WithSoftwareBroadcast())
	}
	cfg := core.NewConfig(*procs, opts...)
	found := false
	for _, o := range core.OverheadRuns() {
		if o.Name == *overhead {
			cfg.Overhead = o
			found = true
		}
	}
	if !found {
		fatal(fmt.Errorf("unknown overhead setting %q", *overhead))
	}
	if *send >= 0 {
		cfg.Overhead.Send = simnet.US(*send)
		cfg.Overhead.Name = "custom"
	}
	if *recv >= 0 {
		cfg.Overhead.Recv = simnet.US(*recv)
		cfg.Overhead.Name = "custom"
	}

	nprocs := 1 + *procs
	if *pairs {
		nprocs = 1 + 2**procs
	}
	switch *topology {
	case "":
	case "crossbar":
		cfg.Topology = simnet.Crossbar{}
	case "mesh":
		w := 1
		for w*w < nprocs {
			w++
		}
		cfg.Topology = simnet.Mesh2D{W: w, H: (nprocs + w - 1) / w}
	case "hypercube":
		cfg.Topology = simnet.Hypercube{}
	case "ring":
		cfg.Topology = simnet.Ring{N: nprocs}
	default:
		fatal(fmt.Errorf("unknown topology %q", *topology))
	}
	cfg.PerHop = simnet.US(*perhop)

	strat, err := sched.StrategyByName(*partition, *seed)
	fatal(err)
	cfg.Distribute(strat, tr.BucketLoad(false), tr.NBuckets)

	if *timeline != "" {
		cfg.Recorder, err = core.NewFlightRecorder(tr, cfg)
		fatal(err)
	}
	var reg *obs.Registry
	if *metrics != "" || *verbose {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}

	sp, res, base, err := core.Speedup(tr, cfg)
	fatal(err)

	fmt.Printf("%s\n", tr)
	fmt.Printf("machine: %d match procs (+1 control), overhead %s (%.0f/%.0f µs), latency %.1f µs, pairs=%v\n",
		*procs, cfg.Overhead.Name, cfg.Overhead.Send.Microseconds(), cfg.Overhead.Recv.Microseconds(),
		cfg.Latency.Microseconds(), *pairs)
	fmt.Printf("makespan: %.1f µs (base 1-proc: %.1f µs)  speedup: %.2f\n",
		res.Makespan.Microseconds(), base.Makespan.Microseconds(), sp)
	fmt.Printf("messages: %d, network idle: %.1f%%, avg utilization: %.1f%%\n",
		res.Net.Messages, 100*res.Net.NetworkIdleFraction(), 100*res.Net.AvgUtilization())
	gaps, gapMax := res.Net.IdleGapSummary()
	fmt.Printf("idle gaps: %d across %d procs, max %.1f µs\n",
		gaps, len(res.Net.Procs), gapMax.Microseconds())
	if *verbose {
		experiments.RenderPerCycle(os.Stdout, reg)
	} else {
		for ci, ct := range res.CycleTimes {
			fmt.Printf("  cycle %d: %.1f µs\n", ci+1, ct.Microseconds())
		}
	}

	if *timeline != "" {
		f, err := os.Create(*timeline)
		fatal(err)
		fatal(cfg.Recorder.Dump().WriteChromeTrace(f))
		fatal(f.Close())
		fmt.Printf("timeline written to %s (open at https://ui.perfetto.dev)\n", *timeline)
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		fatal(err)
		if strings.HasSuffix(*metrics, ".json") {
			fatal(reg.WriteJSON(f))
		} else {
			fatal(reg.WriteCSV(f))
		}
		fatal(f.Close())
		fmt.Printf("metrics written to %s\n", *metrics)
	}
	if *dist {
		for ci, perProc := range res.LeftActsPerSlot {
			stats.Bars(os.Stdout, fmt.Sprintf("cycle %d left activations per processor:", ci+1), perProc, 40)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcsim: %v\n", err)
		os.Exit(1)
	}
}
