// Command traceanalyze runs the Section 5.2 bottleneck analysis over a
// trace and optionally applies the recommended countermeasures,
// reporting the simulated speedup before and after.
//
// Usage:
//
//	traceanalyze -trace tourney.trace
//	traceanalyze -trace tourney.trace -v
//	traceanalyze -trace tourney.trace -tune -procs 32 -o tuned.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"mpcrete/internal/analysis"
	"mpcrete/internal/core"
	"mpcrete/internal/experiments"
	"mpcrete/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "trace file (required)")
	tune := flag.Bool("tune", false, "apply recommended transformations and compare speedups")
	procs := flag.Int("procs", 32, "processors for the before/after comparison")
	out := flag.String("o", "", "write the tuned trace here")
	verbose := flag.Bool("v", false, "print a per-cycle summary of a simulated run at -procs")
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

	tuned, report := analysis.AutoTune(tr)
	report.Render(os.Stdout)

	if *verbose {
		reg, res, err := experiments.CollectRunMetrics(tr,
			core.NewConfig(*procs, core.WithOverhead(core.OverheadRuns()[1])))
		fatal(err)
		fmt.Printf("\nper-cycle summary at %d processors (run2 overheads), makespan %.1f µs:\n",
			*procs, res.Makespan.Microseconds())
		experiments.RenderPerCycle(os.Stdout, reg)

		// The dependency-chain floor no processor count can beat
		// (Section 4.4): per-cycle critical paths in dependent
		// activation steps.
		bounds := analysis.CriticalPaths(tr)
		total, deepest, at := 0, 0, 0
		for i, b := range bounds {
			total += b
			if b > deepest {
				deepest, at = b, i+1
			}
		}
		fmt.Printf("critical-path lower bound: %d dependent steps over %d cycles (mean %.1f), deepest cycle %d at depth %d\n",
			total, len(bounds), float64(total)/float64(max(len(bounds), 1)), at, deepest)
	}

	if *tune {
		cfg := core.NewConfig(*procs, core.WithOverhead(core.OverheadRuns()[1]))
		before, _, _, err := core.Speedup(tr, cfg)
		fatal(err)
		after, _, _, err := core.Speedup(tuned, cfg)
		fatal(err)
		fmt.Printf("\nspeedup at %d processors (run2 overheads): %.2f -> %.2f (%.2fx)\n",
			*procs, before, after, after/before)
		if *out != "" {
			of, err := os.Create(*out)
			fatal(err)
			fatal(trace.Encode(of, tuned))
			fatal(of.Close())
			fmt.Printf("tuned trace written to %s\n", *out)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceanalyze: %v\n", err)
		os.Exit(1)
	}
}
