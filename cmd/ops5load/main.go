// Command ops5load is the load generator for ops5d: N concurrent
// simulated clients each replay full session lifecycles (open the
// served workload, run it to quiescence, snapshot, close) against a
// running server, and the per-operation latency distribution
// (p50/p99) plus sustained sessions/sec throughput is written as a
// server.LoadReport in JSON. It exits 1 when any request failed.
//
// Usage:
//
//	ops5load -addr http://127.0.0.1:8080 -clients 16 -sessions 50
//	ops5load -batch                use the batch endpoint for runs
//	ops5load -o load-report.json   write the report elsewhere
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mpcrete/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "ops5d base URL")
		clients  = flag.Int("clients", 8, "concurrent simulated clients")
		sessions = flag.Int("sessions", 25, "session lifecycles per client")
		cycles   = flag.Int("max-cycles", 0, "per-run cycle cap (0 = server default)")
		batch    = flag.Bool("batch", false, "drive runs through the batch endpoint")
		out      = flag.String("o", "load-report.json", "report output path")
	)
	flag.Parse()

	c := server.NewClient(*addr, nil)
	if !c.Healthy() {
		fmt.Fprintf(os.Stderr, "ops5load: server at %s is not healthy\n", *addr)
		os.Exit(1)
	}

	report, err := server.RunLoad(c, server.LoadSpec{
		Clients:   *clients,
		Sessions:  *sessions,
		MaxCycles: *cycles,
		Batch:     *batch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ops5load:", err)
		os.Exit(1)
	}

	for _, op := range report.Ops {
		fmt.Printf("%-10s %6d ops  mean %10.0f ns  p50 %10.0f ns  p99 %10.0f ns\n",
			op.Op, op.N, op.MeanNs, op.P50Ns, op.P99Ns)
	}
	fmt.Printf("%d sessions in %.2f s  %.1f sessions/s  %d errors\n",
		report.Sessions, report.ElapsedS, report.SessionsPerS, report.Errors)
	data, err := json.MarshalIndent(report, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ops5load:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	if report.Errors > 0 {
		fmt.Fprintf(os.Stderr, "ops5load: %d requests failed\n", report.Errors)
		os.Exit(1)
	}
}
