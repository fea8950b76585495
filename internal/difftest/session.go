package difftest

import (
	"bytes"
	"fmt"
	"sync"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
)

// sessions is the serving shapes' row, for engine-level cases: the
// multi-tenant server's sessions over one shared Compiled, run
// concurrently and recycled through a SessionPool.
var sessions = config{name: "sessions", run: runSessions, engineOnly: true}

// runSessions compiles the case once; two goroutines each take a
// session from their own SessionPool, run the case, put the session
// back (which resets it), get it again and run the case a second time.
// The four runs must agree with each other — a disagreement becomes
// run 0's Err — and run 0, through Check, with the reference.
func runSessions(prog *ops5.Program, c Case, opts CheckOptions) *Outcome {
	compiled, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		return &Outcome{Err: "build: " + err.Error()}
	}
	var runs [4]*Outcome
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			pool := engine.NewSessionPool(compiled, engine.SessionOptions{Output: &buf, NBuckets: checkNBuckets})
			for r := 0; r < 2; r++ {
				s := pool.Get()
				buf.Reset()
				runs[2*g+r] = drive(s, &buf, c, opts)
				pool.Put(s)
			}
		}()
	}
	wg.Wait()
	for i, run := range runs[1:] {
		if d := runs[0].diff(run); d != "" {
			runs[0].Err = fmt.Sprintf("session run %d diverges from run 0: %s", i+1, d)
			break
		}
	}
	return runs[0]
}
