// Command tracegen emits hash-table activity traces: either one of
// the calibrated characteristic sections (rubik, tourney, weaver) or
// a trace recorded from a bundled program (internal/workloads' registry).
//
// Usage:
//
//	tracegen -section rubik -o rubik.trace
//	tracegen -demo blocks -o blocks.trace
//	tracegen -section weaver -split 4 -o weaver-unshared.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"mpcrete/internal/trace"
	"mpcrete/internal/workloads"
)

func main() {
	section := flag.String("section", "", "calibrated section: rubik, tourney, or weaver")
	demo := flag.String("demo", "", fmt.Sprintf("record a run of a bundled program %v", workloads.NamedNames()))
	out := flag.String("o", "", "output file (default stdout)")
	split := flag.Int("split", 0, "apply the unsharing transformation with this many copies")
	scatter := flag.Int("scatter", 0, "apply copy-and-constraint with this many copies (tourney)")
	flag.Parse()

	var tr *trace.Trace
	switch {
	case *section != "":
		switch *section {
		case "rubik":
			tr = workloads.Rubik()
		case "tourney":
			tr = workloads.Tourney()
		case "weaver":
			tr = workloads.Weaver()
		default:
			fatal(fmt.Errorf("unknown section %q", *section))
		}
	case *demo != "":
		wl, err := workloads.Named(*demo)
		fatal(err)
		tr, _, err = workloads.RecordRun(wl.Name, wl.Program, wl.WMEs, wl.MaxCycles)
		fatal(err)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *split > 1 {
		tr = trace.SplitFanout(tr, 10, *split)
	}
	if *scatter > 1 {
		tr = trace.ScatterNode(tr, workloads.TourneyHotNode, *scatter)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		fatal(err)
		defer f.Close()
		w = f
	}
	fatal(trace.Encode(w, tr))
	fmt.Fprintf(os.Stderr, "tracegen: %s\n", tr)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}
