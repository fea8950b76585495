package main

import (
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo is recorded in every result; results measured under
// different GOMAXPROCS are never compared (see compatible).
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

// pinHost pins GOMAXPROCS to min(nproc, 2): the box the bounds were
// calibrated on has two cores, and a wider machine must not turn the
// par/wire/serve rows into a different experiment.
func pinHost() hostInfo {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(min(n, 2))
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux: recorded as ""
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      n,
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
	}
}

// processCPU returns the process's user+system CPU time so far. It
// counts every goroutine — workers, HTTP server, GC — which is the
// point: a change that shortens wall time by burning the second core
// shows here.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sentinelSink keeps the compiler from discarding the sentinel loop.
var sentinelSink uint64

// sentinel times a fixed xorshift64 kernel (about a millisecond). It
// touches no memory and calls nothing, so its duration moves only when
// the host does: a neighbour stealing the core, frequency scaling, or
// the scheduler migrating us. The spread of its samples is the run's
// validity signal.
func sentinel() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 600_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sentinelSink = x
	return time.Since(start)
}
