// Command obsreport runs one OPS5 workload through both halves of the
// codebase — the recorded-trace cost model (predicted) and the
// instrumented parallel runtime (measured) — and renders the
// side-by-side model-vs-measured report. It can also export the
// measured run's causal flight dump, both raw and as a Chrome
// trace-event file with message flow arrows (load in about:tracing or
// https://ui.perfetto.dev).
//
// Usage:
//
//	obsreport -workload rubik-like
//	obsreport -workload tourney-like -workers 8 -routed
//	obsreport -workload rubik-like -transport tcp
//	obsreport -workload blocks -json report.json -csv report.csv
//	obsreport -workload rubik-like -trace rubik.trace.json -dump rubik.flight.json
//	obsreport -prog my.ops5 -wmes my.wmes -workers 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mpcrete/internal/analysis"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/transport"
	"mpcrete/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", fmt.Sprintf("built-in workload %v", workloads.NamedNames()))
		progPath = flag.String("prog", "", "OPS5 program file (alternative to -workload; requires -wmes)")
		wmesPath = flag.String("wmes", "", "initial working-memory file for -prog")
		workers  = flag.Int("workers", 4, "parallel workers (also the model's processor count)")
		cycles   = flag.Int("cycles", 200, "max recognize-act cycles")
		routed   = flag.Bool("routed", false, "route root activations to their owners (Fig 3-2) instead of broadcasting")
		tname    = flag.String("transport", "inproc", "measured run's message plane: inproc (goroutine mailboxes) or tcp (the star carrier — control and socket workers — in this process)")
		chaos    = flag.Int64("chaos", 0, "chaos-scheduling seed for the measured run (0 = off)")
		jsonOut  = flag.String("json", "", "write the report as JSON here")
		csvOut   = flag.String("csv", "", "write the per-cycle rows as CSV here")
		traceOut = flag.String("trace", "", "write the measured run's Chrome trace-event file here")
		dumpOut  = flag.String("dump", "", "write the measured run's raw flight dump (JSON) here")
	)
	flag.Parse()

	name, prog, wmes, err := resolveWorkload(*workload, *progPath, *wmesPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		flag.Usage()
		os.Exit(2)
	}

	plane, err := messagePlane(*tname)
	fatal(err)
	rep, err := analysis.CompareModelMeasured(name, prog, wmes, analysis.MMOptions{
		Workers:    *workers,
		MaxCycles:  *cycles,
		RouteRoots: *routed,
		ChaosSeed:  *chaos,
		Transport:  plane,
	})
	fatal(err)

	fatal(rep.Render(os.Stdout))
	if *jsonOut != "" {
		fatal(writeTo(*jsonOut, rep.WriteJSON))
	}
	if *csvOut != "" {
		fatal(writeTo(*csvOut, rep.WriteCSV))
	}
	if *traceOut != "" {
		fatal(writeTo(*traceOut, rep.Dump.WriteChromeTrace))
	}
	if *dumpOut != "" {
		fatal(writeTo(*dumpOut, rep.Dump.WriteJSON))
	}
}

// messagePlane maps -transport to MMOptions.Transport: nil for the
// goroutine mailboxes, a transport.Loopback for the star.
func messagePlane(name string) (func(*rete.Network) parallel.Transport, error) {
	switch name {
	case "inproc":
		return nil, nil
	case "tcp":
		return func(n *rete.Network) parallel.Transport { return transport.NewLoopback(n) }, nil
	}
	return nil, fmt.Errorf("unknown transport %q (inproc or tcp)", name)
}

// resolveWorkload picks the program and initial working memory from
// either a built-in name or a -prog/-wmes file pair.
func resolveWorkload(workload, progPath, wmesPath string) (name, prog, wmes string, err error) {
	switch {
	case workload != "" && progPath != "":
		return "", "", "", fmt.Errorf("-workload and -prog are mutually exclusive")
	case workload != "":
		wl, err := workloads.Named(workload)
		return wl.Name, wl.Program, wl.WMEs, err
	case progPath != "":
		if wmesPath == "" {
			return "", "", "", fmt.Errorf("-prog requires -wmes")
		}
		p, err := os.ReadFile(progPath)
		if err != nil {
			return "", "", "", err
		}
		w, err := os.ReadFile(wmesPath)
		if err != nil {
			return "", "", "", err
		}
		return progPath, string(p), string(w), nil
	default:
		return "", "", "", fmt.Errorf("one of -workload or -prog is required")
	}
}

// writeTo streams one rendering to a file.
func writeTo(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
		os.Exit(1)
	}
}
