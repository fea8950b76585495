// Package obs is the observability layer shared by the discrete-event
// simulator (internal/core and internal/simnet, simulated nanoseconds)
// and the real parallel runtime (internal/parallel and
// internal/transport, wall-clock nanoseconds). It has one event model
// and a registry:
//
//   - CausalRecorder (causal.go): the flight recorder, bounded
//     per-track rings of turns, handles, sends and receives that every
//     run writes to, simulated or live. Its Chrome export is the
//     visual form of the paper's Fig 5-5 busy/idle alternation, and a
//     simulated run and a live run of one program dump to one type.
//   - Registry: a metrics registry of counters, gauges, fixed-bucket
//     histograms, and per-cycle series, with deterministic CSV and
//     JSON export (internal/experiments and the cmd/ tools consume
//     these).
//
// Every recording method is safe on a nil receiver and does nothing,
// so instrumented code paths need no conditionals and the default
// (un-observed) configuration pays only a nil check.
package obs
