package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json at the repo root
// repeats these lists; TestMetricDefsMatchContract keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // allowed relative worsening; end-to-end only
}

// endToEnd are the numbers a user of the system sees, reported for
// every workload from the untraced run. Tail percentiles are
// deliberately absent: on a 2-core box p90 moves with GC phase and
// neighbours, not with the program, so they live in perLayer.
//
// fail_ratio is computed and printed too, but it is not in this list:
// it is 0 on a healthy run, and the contract gates failures through
// the result line's attempted/failed counts instead of a relative
// bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_work", "us", "lower", 0.25},
	{"alloc_b_per_work", "B", "lower", 0.02},
	{"allocs_per_work", "1", "lower", 0.02},
}

// perLayer are the traced run's numbers, grouped by the module that
// does the work. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"ops5.parse_program_us", "us", "lower", 0},
	{"ops5.parse_wmes_us", "us", "lower", 0},

	{"rete.compile_us", "us", "lower", 0},
	{"rete.load_us", "us", "lower", 0},
	{"rete.apply_p50_us", "us", "lower", 0},
	{"rete.apply_p99_us", "us", "lower", 0},
	{"rete.apply_share", "1", "lower", 0},
	{"rete.burst_add_p50_us", "us", "lower", 0},
	{"rete.burst_del_p50_us", "us", "lower", 0},
	{"rete.insts_per_op", "count", "lower", 0},
	{"rete.mem_entries_peak", "count", "lower", 0},

	{"engine.session_new_us", "us", "lower", 0},
	{"engine.insert_us", "us", "lower", 0},
	{"engine.resolve_act_us_per_cycle", "us", "lower", 0},
	{"engine.resolve_act_share", "1", "lower", 0},
	{"engine.firings_per_op", "count", "lower", 0},
	{"engine.op_p90_us", "us", "lower", 0},
	{"engine.op_p99_us", "us", "lower", 0},

	{"parallel.new_us", "us", "lower", 0},
	{"parallel.close_us", "us", "lower", 0},
	{"parallel.apply_p50_us", "us", "lower", 0},
	{"parallel.apply_p99_us", "us", "lower", 0},
	{"parallel.cycle_tax_us", "us", "lower", 0},
	{"parallel.acts_per_cycle", "count", "lower", 0},
	{"parallel.msgs_per_cycle", "count", "lower", 0},
	{"parallel.imbalance", "1", "lower", 0},
	{"parallel.speedup_vs_seq", "1", "higher", 0},
	{"parallel.routed_over_bcast", "1", "lower", 0},
	{"parallel.op_p90_us", "us", "lower", 0},
	{"parallel.op_p99_us", "us", "lower", 0},

	{"termdet.four_over_count", "1", "lower", 0},

	{"transport.handshake_us", "us", "lower", 0},
	{"transport.close_us", "us", "lower", 0},
	{"transport.cycle_p50_us", "us", "lower", 0},
	{"transport.cycle_p99_us", "us", "lower", 0},
	{"transport.wire_b_per_cycle", "B", "lower", 0},
	{"transport.wire_b_per_firing", "B", "lower", 0},
	{"transport.us_per_msg_over_inproc", "us", "lower", 0},
	{"transport.loopback_over_inproc", "1", "lower", 0},

	{"server.open_p50_us", "us", "lower", 0},
	{"server.assert_p50_us", "us", "lower", 0},
	{"server.run_p50_us", "us", "lower", 0},
	{"server.snapshot_p50_us", "us", "lower", 0},
	{"server.retract_p50_us", "us", "lower", 0},
	{"server.close_p50_us", "us", "lower", 0},
	{"server.session_p90_us", "us", "lower", 0},
	{"server.session_p99_us", "us", "lower", 0},
	{"server.match_share", "1", "lower", 0},
	{"server.http_self_us_per_req", "us", "lower", 0},
	{"server.direct_over_http", "1", "lower", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.pooled_sessions", "count", "higher", 0},

	{"core.ns_per_event", "ns", "lower", 0},
	{"core.events_per_op", "count", "lower", 0},
	{"core.baseline_share", "1", "lower", 0},
	{"core.speedup_rubik_p32_run1", "1", "higher", 0},
	{"core.speedup_tourney_p32_run1", "1", "higher", 0},
	{"core.speedup_weaver_p32_run1", "1", "higher", 0},
	{"core.speedup_rubik_p32_run4", "1", "higher", 0},
	{"core.speedup_tourney_p32_run4", "1", "higher", 0},
	{"core.speedup_weaver_p32_run4", "1", "higher", 0},
	{"sched.greedy_partition_us", "us", "lower", 0},
	{"sweep.cold_ms", "ms", "lower", 0},
	{"sweep.warm_ms", "ms", "lower", 0},
	{"workloads.sections_gen_ms", "ms", "lower", 0},

	{"obs.flight_on_over_off", "1", "lower", 0},

	{"bench.trace_overhead", "1", "lower", 0},
	{"go.gc_cycles_per_op", "count", "lower", 0},
	{"go.gc_pause_us_per_op", "us", "lower", 0},
	{"host.sentinel_p50_us", "us", "lower", 0},
	{"host.sentinel_p90_over_p10", "1", "lower", 0},
	{"host.gomaxprocs", "count", "higher", 0},
}

// quantile returns the q-quantile (0..1) of values by linear
// interpolation between order statistics; 0 for an empty slice. The
// input is not modified.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
