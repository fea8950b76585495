package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mpcrete/internal/sched"
	"mpcrete/internal/simnet"
	"mpcrete/internal/workloads"
)

// digestShape is a machine shape the experiments golden does not
// cover, with the digests TestShapeDigestsPinned pins for it on the
// tourney section.
type digestShape struct {
	name           string
	cfg            Config
	result, chrome string
}

func digestShapes() []digestShape {
	return []digestShape{
		{"mesh-contention", NewConfig(8, WithOverhead(OverheadRuns()[1]), func(c *Config) {
			c.Topology, c.PerHop, c.Contention = simnet.Mesh2D{W: 3, H: 3}, simnet.US(0.2), true
		}), "43d66f5371353b1e", "fcfc19db4149ceec"},
		{"software-broadcast", NewConfig(16, WithSoftwareBroadcast(), WithOverhead(OverheadRuns()[2])), "eeb8556a3b642ad0", "1d711448dd34ac35"},
		{"pairs", NewConfig(8, WithPairs(), WithOverhead(OverheadRuns()[2])), "5d9ae1ae7dd4d74e", "50f5e863b80d3f2f"},
		{"replicated", NewConfig(8, WithOverhead(OverheadRuns()[1]), func(c *Config) { c.Replicated = true }), "8900ce7dd060b935", "e03e7d5045dd63d5"},
		{"rebalance", NewConfig(8, WithOverhead(OverheadRuns()[3]), func(c *Config) { c.Rebalance = sched.Rebalance{Threshold: 1.1} }), "e93322df07816870", "f0253c108df269a5"},
	}
}

// TestShapeDigestsPinned pins, for each of digestShapes, a digest of the
// whole Result and of its flight dump's Chrome-trace bytes. The Result
// digests were recorded from the simulator before its event queue
// merged per-processor lanes into the key heap, the Chrome-trace ones
// when the simulator moved from its own timeline onto the flight
// recorder; any change to the pop order, the flight union or the
// recorded events shows up here as a changed digest.
func TestShapeDigestsPinned(t *testing.T) {
	tr := workloads.Tourney()
	for _, sh := range digestShapes() {
		cfg := sh.cfg
		rec, err := NewFlightRecorder(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		cfg.Recorder = rec
		res, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		var chrome bytes.Buffer
		if err := rec.Dump().WriteChromeTrace(&chrome); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		got := digest([]byte(fmt.Sprintf("%+v", *res)))
		if got != sh.result {
			t.Errorf("%s: Result digest %s, want %s", sh.name, got, sh.result)
		}
		if got := digest(chrome.Bytes()); got != sh.chrome {
			t.Errorf("%s: Chrome-trace digest %s, want %s", sh.name, got, sh.chrome)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
