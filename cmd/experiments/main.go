// Command experiments regenerates the tables and figures of the
// paper's evaluation section (see EXPERIMENTS.md for paper-vs-measured
// commentary). The grids run on the concurrent sweep engine
// (internal/sweep), so regeneration scales with the host's cores.
//
// Usage:
//
//	experiments -all
//	experiments -fig 5-1        (also: 5-2, 5-4, 5-5, 5-6)
//	experiments -table 5-1      (also: 5-2)
//	experiments -exp greedy     (also: probmodel, ablations, adaptive)
//	experiments -json -fig 5-1  (structured JSON instead of text)
//	experiments -metrics run.csv -section rubik -procs 16
//
// With -json the selected experiments emit one deterministic JSON
// document of their structured results (SpeedupSeries, table rows,
// dips, ...) instead of the rendered text tables; fig 5-3 is a
// network-rendering demonstration with no tabular data and is text
// only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpcrete/internal/core"
	"mpcrete/internal/experiments"
)

// experiment is one row of the suite: what -all walks, what -fig,
// -table and -exp select from, and what -json collects.
type experiment struct {
	key      string  // the result's key in the -json document
	selector *string // the flag that selects the row: -fig, -table or -exp
	value    string  // the value of that flag which selects it
	// data computes the structured result; nil marks a row that has
	// none and is text only.
	data   func() (any, error)
	render func(w io.Writer, data any) error
}

// row builds an experiment from a typed data function and the renderer
// of its result.
func row[T any](key string, selector *string, value string, data func() (T, error), render func(io.Writer, T)) experiment {
	return experiment{key, selector, value,
		func() (any, error) { return data() },
		func(w io.Writer, d any) error { render(w, d.(T)); return nil }}
}

// noErr adapts a data function that cannot fail.
func noErr[T any](f func() T) func() (T, error) {
	return func() (T, error) { return f(), nil }
}

// series renders a speedup-series figure under its title.
func series(title string) func(io.Writer, []experiments.SpeedupSeries) {
	return func(w io.Writer, s []experiments.SpeedupSeries) { experiments.RenderSeries(w, title, s) }
}

func main() {
	fig := flag.String("fig", "", "figure to regenerate (5-1, 5-2, 5-3, 5-4, 5-5, 5-6)")
	table := flag.String("table", "", "table to regenerate (5-1, 5-2)")
	exp := flag.String("exp", "", "analysis to run (greedy, probmodel, generations, dips, continuum, ablations, adaptive)")
	all := flag.Bool("all", false, "regenerate everything")
	procs := flag.Int("procs", 16, "processor count for greedy/ablation/metrics analyses")
	jsonOut := flag.Bool("json", false, "emit structured results as deterministic JSON instead of rendered text")
	metrics := flag.String("metrics", "", "collect a section run's metrics and write them here (.json for JSON, CSV otherwise)")
	section := flag.String("section", "rubik", "workload section for -metrics (rubik, tourney, weaver)")
	flag.Parse()

	if !*all && *fig == "" && *table == "" && *exp == "" && *metrics == "" {
		flag.Usage()
		os.Exit(2)
	}
	fatal := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	w := os.Stdout

	if *metrics != "" {
		fatal("metrics", writeMetrics(w, *metrics, *section, *procs))
	}

	// The suite, in the order -all prints it.
	suite := []experiment{
		row("table5-1", table, "5-1", noErr(experiments.Table51),
			func(w io.Writer, _ []core.OverheadSetting) { experiments.RenderTable51(w) }),
		row("table5-2", table, "5-2", noErr(experiments.Table52),
			func(w io.Writer, _ []experiments.Table52Row) { experiments.RenderTable52(w) }),
		row("fig5-1", fig, "5-1", experiments.Fig51, series("Fig 5-1: speedups with zero message-passing overheads")),
		row("fig5-2", fig, "5-2", experiments.Fig52, experiments.RenderFig52),
		{key: "fig5-3", selector: fig, value: "5-3", // a network-rendering demonstration
			render: func(w io.Writer, _ any) error { return experiments.RenderFig53(w) }},
		row("fig5-4", fig, "5-4", experiments.Fig54, series("Fig 5-4: Weaver speedups with unsharing (run2 overheads)")),
		row("fig5-5", fig, "5-5", experiments.Fig55, experiments.RenderFig55),
		row("fig5-6", fig, "5-6", experiments.Fig56, series("Fig 5-6: Tourney speedups with copy-and-constraint (run2 overheads)")),
		row("greedy", exp, "greedy",
			func() ([]experiments.GreedyResult, error) { return experiments.GreedyExperiment(*procs) },
			experiments.RenderGreedy),
		row("probmodel", exp, "probmodel", noErr(experiments.ProbModel), experiments.RenderProbModel),
		row("dips", exp, "dips",
			func() ([]experiments.Dip, error) { return experiments.Dips("rubik", 40) },
			func(w io.Writer, dips []experiments.Dip) { experiments.RenderDips(w, "rubik", dips, 40) }),
		row("continuum", exp, "continuum",
			func() (*experiments.ContinuumResult, error) { return experiments.Continuum("rubik") },
			experiments.RenderContinuum),
		row("generations", exp, "generations", experiments.Generations, experiments.RenderGenerations),
		row("ablations", exp, "ablations",
			func() ([]experiments.AblationRow, error) { return experiments.Ablations(*procs) },
			func(w io.Writer, rs []experiments.AblationRow) { experiments.RenderAblations(w, rs, *procs) }),
		row("adaptive", exp, "adaptive",
			func() ([]experiments.AdaptiveResult, error) { return experiments.AdaptiveExperiment(*procs) },
			experiments.RenderAdaptive),
	}

	// doc collects the structured results in -json mode; encoding/json
	// sorts the keys, so the document is deterministic.
	doc := map[string]any{}
	for _, e := range suite {
		if !*all && *e.selector != e.value {
			continue
		}
		var data any
		if e.data != nil {
			var err error
			data, err = e.data()
			fatal(e.key, err)
		}
		switch {
		case !*jsonOut:
			fatal(e.key, e.render(w, data))
		case e.data == nil:
			fmt.Fprintf(os.Stderr, "experiments: %s has no tabular data (text only); skipped in -json mode\n", e.key)
		default:
			doc[e.key] = data
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		fatal("json", enc.Encode(doc))
	}
}

// writeMetrics runs one section at the given processor count and
// writes the run's metrics registry to path.
func writeMetrics(w io.Writer, path, section string, procs int) error {
	reg, res, err := experiments.SectionRunMetrics(section, procs)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = reg.WriteJSON(f)
	} else {
		err = reg.WriteCSV(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s at %d procs: makespan %.1f µs over %d cycles; metrics written to %s\n",
		section, procs, res.Makespan.Microseconds(), len(res.CycleTimes), path)
	return nil
}
