package mpcrete

import (
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestWatchTwoTranscriptsPinned holds the full transcripts of four
// bundled workloads to digests recorded before the engine recycled wme
// rows and instantiations: ops5run -watch 2 prints every firing and
// every working-memory change with the wme's contents, so a recycled
// row refilled while something still read it, or an instantiation
// reused while it still stood in the conflict set, changes the text.
// Cross-runtime parity cannot catch that if every runtime shares the
// engine that does it; a digest taken before the change can. Each
// workload runs on the sequential matcher and with -parallel 2, and
// both print the same transcript.
func TestWatchTwoTranscriptsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := filepath.Join(t.TempDir(), "ops5run")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/ops5run").CombinedOutput(); err != nil {
		t.Fatalf("build ops5run: %v\n%s", err, out)
	}
	for _, c := range []struct{ workload, sha256 string }{
		{"queens", "db39b9b2667fb99bc9ed38d6df230af9733d2f699accad5c753113ad14b34ac6"},
		{"tourney-like", "295b6ccdd3440f0fcf4238094ad1405698ce5fac5fef875b2be74344c3e7f9b3"},
		{"blocks", "3b5d40e8709ae9f27adf4a9c1330fb6d95e7dda2964cf21c9f93bc99244563cd"},
		{"chain", "140088f5169e7791e31e96c4c65681985de152b4e8a9c2ebff478a8a2d287549"},
	} {
		for _, mode := range [][]string{nil, {"-parallel", "2"}} {
			args := append([]string{"-workload", c.workload, "-watch", "2"}, mode...)
			out, err := exec.Command(bin, args...).Output()
			if err != nil {
				t.Fatalf("ops5run %v: %v", args, err)
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != c.sha256 {
				t.Errorf("ops5run %v: transcript digest %s, want %s (%d bytes)", args, got, c.sha256, len(out))
			}
		}
	}
}
