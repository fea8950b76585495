// Command difftest is the differential-correctness soak runner: it
// generates random OPS5 programs and workloads (internal/difftest) and
// runs each through difftest.Check's configuration matrix — sequential
// Rete on every network variant, the parallel runtime across worker
// counts and both message-plane modes, and, for engine-level cases,
// concurrent and pool-recycled sessions over one compiled network
// (sessions) and a recorded trace replayed through the simulator with
// its conservation check (seq-traced) — until the iteration or time
// budget is exhausted.
//
// Every divergence is shrunk to a minimal case and written to -out as
// a .ops5 repro file in the corpus format, ready to drop into
// internal/difftest/testdata/corpus/ as a regression seed. The exit
// status is non-zero if any run diverged, or if the parallel runtime
// silently dropped a post-close message (the parallel.dropped_post_close
// counter, satellite of the same PR).
//
// Usage:
//
//	difftest -n 500                     500 generated cases, then stop
//	difftest -duration 10m              soak for ten minutes (CI weekly job)
//	difftest -seed 1 -chaos             deterministic, chaos scheduling on
//	difftest -workers 2,4,8 -cycles 25  tune the per-case matrix
//	difftest -out repros                where .ops5 repros land
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mpcrete/internal/difftest"
	"mpcrete/internal/obs"
)

func main() {
	var (
		n        = flag.Int("n", 0, "number of generated cases to run (0 = use -duration)")
		duration = flag.Duration("duration", time.Minute, "soak length when -n is 0")
		seed     = flag.Int64("seed", 1, "base seed; case i uses seed+i")
		chaos    = flag.Bool("chaos", true, "enable chaos scheduling on parallel configurations")
		workers  = flag.String("workers", "1,2,4,8", "comma-separated worker counts")
		cycles   = flag.Int("cycles", 30, "max recognize-act cycles per case")
		out      = flag.String("out", "difftest-repros", "directory for shrunk .ops5 repro files")
		flight   = flag.Int("flight", 64, "cycles of causal flight trace retained per parallel run (0 = off)")
		force    = flag.String("force-divergence", "", "perturb configs whose name contains this substring (drills the divergence path)")
		rebal    = flag.Bool("rebalance", false, "add the migration configurations (adaptive rebalancer + forced full rotations) to the matrix")
		tcp      = flag.Bool("tcp", false, "add the star carrier (control and socket workers, run in this process) to the matrix")
	)
	flag.Parse()

	ws, err := parseWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "difftest:", err)
		os.Exit(2)
	}
	metrics := obs.NewRegistry()
	opts := difftest.CheckOptions{
		MaxCycles:       *cycles,
		Workers:         ws,
		Metrics:         metrics,
		FlightCycles:    *flight,
		ForceDivergence: *force,
		Rebalance:       *rebal,
		TCP:             *tcp,
	}

	deadline := time.Now().Add(*duration)
	failures := 0
	i := 0
	start := time.Now()
	for ; ; i++ {
		if *n > 0 {
			if i >= *n {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		caseSeed := *seed + int64(i)
		if *chaos {
			opts.ChaosSeed = caseSeed
		}
		// Alternate engine-level cases with matcher-level scripts, and
		// sweep the generator knobs with the seed so the soak covers
		// discriminating and non-discriminating programs alike.
		cfg := difftest.GenConfig{
			Productions:  2 + int(caseSeed%4),
			EqDensity:    float64(caseSeed%5) / 4,
			NegationProb: 0.2,
		}
		var c difftest.Case
		if i%3 == 2 {
			c = difftest.GenScript(caseSeed, cfg)
		} else {
			c = difftest.Gen(caseSeed, cfg)
		}
		mis := difftest.Check(c, opts)
		if mis == nil {
			continue
		}
		failures++
		fmt.Fprintf(os.Stderr, "difftest: DIVERGENCE on seed %d: %v\n", caseSeed, mis)
		path, err := writeRepro(*out, mis, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "difftest: writing repro:", err)
		} else {
			fmt.Fprintf(os.Stderr, "difftest: shrunk repro written to %s\n", path)
		}
	}

	dropped := metrics.Counter("parallel.dropped_post_close").Value()
	fmt.Printf("difftest: %d cases in %s, %d divergences, %d post-close drops\n",
		i, time.Since(start).Round(time.Millisecond), failures, dropped)
	if failures > 0 || dropped > 0 {
		os.Exit(1)
	}
}

// writeRepro shrinks the diverging case against the same configuration
// matrix that caught it and persists the minimal corpus file. When the
// matrix is instrumented (-flight), the shrunk case's own divergence
// dump lands next to the repro as <name>.flight.json (raw causal
// rings) and <name>.trace.json (Chrome trace-event format, loadable in
// about:tracing / Perfetto).
func writeRepro(dir string, mis *difftest.Mismatch, opts difftest.CheckOptions) (string, error) {
	var last *difftest.Mismatch
	shrunk := difftest.Shrink(mis.Case, func(c difftest.Case) bool {
		m := difftest.Check(c, opts)
		if m != nil {
			last = m
		}
		return m != nil
	})
	if last == nil {
		last = mis // Shrink's predicate never fired: keep the original
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, shrunk.Name+".ops5")
	if err := os.WriteFile(path, shrunk.Encode(), 0o644); err != nil {
		return "", err
	}
	if last.Dump != nil {
		if err := writeDump(filepath.Join(dir, shrunk.Name+".flight.json"), last.Dump.WriteJSON); err != nil {
			return path, err
		}
		if err := writeDump(filepath.Join(dir, shrunk.Name+".trace.json"), last.Dump.WriteChromeTrace); err != nil {
			return path, err
		}
	}
	return path, nil
}

// writeDump streams one dump rendering to a file.
func writeDump(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseWorkers(s string) ([]int, error) {
	var ws []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers value %q", part)
		}
		ws = append(ws, w)
	}
	return ws, nil
}
