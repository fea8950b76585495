package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mpcrete/internal/obs"
	"mpcrete/internal/sched"
	"mpcrete/internal/simnet"
	"mpcrete/internal/workloads"
)

// TestShapeDigestsPinned pins, for the machine shapes the experiments
// golden does not cover, a digest of the whole Result and of the
// recorder's Chrome-trace bytes. The digests were recorded from the
// simulator before its event queue merged per-processor lanes into the
// key heap; any change to the pop order, the flight union or the
// timeline shows up here as a changed digest.
func TestShapeDigestsPinned(t *testing.T) {
	shapes := []struct {
		name           string
		cfg            Config
		result, chrome string
	}{
		{"mesh-contention", NewConfig(8, WithOverhead(OverheadRuns()[1]), func(c *Config) {
			c.Topology, c.PerHop, c.Contention = simnet.Mesh2D{W: 3, H: 3}, simnet.US(0.2), true
		}), "43d66f5371353b1e", "a47590c8e3d949fa"},
		{"software-broadcast", NewConfig(16, WithSoftwareBroadcast(), WithOverhead(OverheadRuns()[2])), "eeb8556a3b642ad0", "c155604ceacf5b68"},
		{"pairs", NewConfig(8, WithPairs(), WithOverhead(OverheadRuns()[2])), "5d9ae1ae7dd4d74e", "123cc8e9ff11f138"},
		{"replicated", NewConfig(8, WithOverhead(OverheadRuns()[1]), func(c *Config) { c.Replicated = true }), "8900ce7dd060b935", "1d19a89657c72444"},
		{"rebalance", NewConfig(8, WithOverhead(OverheadRuns()[3]), func(c *Config) { c.Rebalance = sched.Rebalance{Threshold: 1.1} }), "e93322df07816870", "9c04e24e0f589a72"},
	}
	tr := workloads.Tourney()
	for _, sh := range shapes {
		cfg := sh.cfg
		cfg.Recorder = obs.NewRecorder()
		res, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		var chrome bytes.Buffer
		if err := cfg.Recorder.WriteChromeTrace(&chrome); err != nil {
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
