package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// calibrate is the A/A run: two sets of n full runs of this same
// binary, alternating A1 B1 A2 B2 ..., every run a fresh process with
// its own seed, as the driver runs them. For each (workload, metric)
// it prints each set's median, its (max-min)/median, and the gap
// between the medians; a bound is only committed if the gap is at
// most half of it.
func calibrate(w io.Writer, n int, cfg runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2]map[string]map[string][]float64{{}, {}} // set -> workload -> metric -> values
	var host *hostInfo
	disturbed := 0
	for r := 0; r < 2*n; r++ {
		set := r % 2
		for _, def := range suite {
			args := []string{"-workload", def.name, "-seed", fmt.Sprint(cfg.seed + int64(r))}
			switch {
			case cfg.ops > 0:
				args = append(args, "-ops", fmt.Sprint(cfg.ops))
			case cfg.duration > 0:
				args = append(args, "-seconds", fmt.Sprint(cfg.duration.Seconds()))
			}
			res, err := runChild(self, args)
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", r+1, def.name, err)
			}
			if host == nil {
				host = &res.Host
			} else if err := compatible(*host, res.Host); err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("run %d of %s: %d ops failed: %s", r+1, def.name, res.Failed, res.FirstErr)
			}
			if res.Disturbed {
				disturbed++
			}
			if sets[set][def.name] == nil {
				sets[set][def.name] = map[string][]float64{}
			}
			for name, v := range res.EndToEnd {
				sets[set][def.name][name] = append(sets[set][def.name][name], v)
			}
			fmt.Fprintf(os.Stderr, "aa: run %d/%d set %c %s done\n", r+1, 2*n, 'A'+set, def.name)
		}
	}

	fmt.Fprintf(w, "A/A calibration: 2 sets of %d full runs, alternating, one process per run, seeds %d..%d.\n",
		n, cfg.seed, cfg.seed+int64(2*n)-1)
	fmt.Fprintf(w, "Host: GOMAXPROCS %d, nproc %d, %s, kernel %s. Runs marked disturbed by the sentinel: %d of %d.\n\n",
		host.GOMAXPROCS, host.NProc, host.GoVersion, host.Kernel, disturbed, 2*n*len(suite))
	fmt.Fprintln(w, "| workload | metric | bound | median A | range A | median B | range B | gap | gap <= bound/2 |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	violations := 0
	for _, def := range suite {
		for _, m := range endToEnd {
			a, b := sets[0][def.name][m.Name], sets[1][def.name][m.Name]
			ma, mb := median(a), median(b)
			gap := math.Abs(ma-mb) / ma
			verdict := "yes"
			if gap > m.Bound/2 {
				verdict = "NO"
				violations++
			}
			fmt.Fprintf(w, "| %s | %s | %.2f | %.6g | %.2f%% | %.6g | %.2f%% | %.2f%% | %s |\n",
				def.name, m.Name, m.Bound, ma, 100*spread(a), mb, 100*spread(b), 100*gap, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d of %d (workload, metric) pairs exceed half their bound.\n", violations, len(suite)*len(endToEnd))
	return nil
}

// spread is (max-min)/median.
func spread(values []float64) float64 {
	return ratio(quantile(values, 1)-quantile(values, 0), median(values))
}

// runChild runs one workload in a fresh process and decodes its
// "result: " line.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "result: "); ok {
			var res result
			if err := json.Unmarshal([]byte(rest), &res); err != nil {
				return nil, err
			}
			return &res, nil
		}
	}
	return nil, fmt.Errorf("no result line in child output")
}
