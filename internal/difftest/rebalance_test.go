package difftest

import (
	"testing"
)

// TestRebalanceMatrixParity replays the committed corpus and a slice
// of generated cases through the migration configurations: the online
// adaptive rebalancer recovering from an all-on-worker-0 assignment
// (adapt-*) and the forced full-rotation schedule moving every bucket
// at every cycle boundary (migrate-*), across worker counts and both
// message-plane modes. Conflict-set trajectories must be identical to
// the static sequential reference — migration moves state, never
// match semantics.
func TestRebalanceMatrixParity(t *testing.T) {
	opts := CheckOptions{MaxCycles: 25, Workers: []int{2, 4, 8}, Budget: 15000, Rebalance: true}
	cases, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			if mis := Check(c, opts); mis != nil {
				t.Fatal(mis)
			}
		})
	}
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < seeds; seed++ {
		cfg := GenConfig{EqDensity: float64(seed%4) / 3}
		if mis := Check(Gen(seed, cfg), opts); mis != nil {
			t.Fatalf("%v\nrepro:\n%s", mis, mis.Case.Encode())
		}
		if mis := Check(GenScript(seed, cfg), opts); mis != nil {
			t.Fatalf("%v\nrepro:\n%s", mis, mis.Case.Encode())
		}
	}
}

// TestRebalanceTCPParity adds the star carrier to the migration matrix
// (tcpadapt-*, tcpmigrate-*, both root modes), where every migrated
// bucket's tokens serialize across real TCP connections mid-run. The two promoted corpus cases are the focus — both force
// retractions against state that has physically changed owners.
func TestRebalanceTCPParity(t *testing.T) {
	opts := CheckOptions{MaxCycles: 20, Workers: []int{2}, Budget: 10000, Rebalance: true, TCP: true}
	cases, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, c := range cases {
		if c.Name != "adaptive-hot-bucket" && c.Name != "migrate-neg-state" && testing.Short() {
			continue
		}
		ran++
		t.Run(c.Name, func(t *testing.T) {
			if mis := Check(c, opts); mis != nil {
				t.Fatal(mis)
			}
		})
	}
	if ran < 2 {
		t.Fatal("promoted migration corpus cases missing")
	}
}

// TestRebalanceChaosStress composes the chaos scheduling layer with
// the migration configurations: randomized generated programs, random
// mailbox interleavings, and hair-trigger adaptive plus forced
// full-rotation migration — asserting zero conflict-set divergence.
// Runs under -race in CI.
func TestRebalanceChaosStress(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	opts := CheckOptions{MaxCycles: 12, Workers: []int{2, 4}, Budget: 6000, Rebalance: true}
	for seed := 0; seed < seeds; seed++ {
		opts.ChaosSeed = int64(seed) + 1
		cfg := GenConfig{
			Productions: 2 + seed%3,
			EqDensity:   float64(seed%4) / 3,
		}
		var c Case
		if seed%3 == 2 {
			c = GenScript(int64(seed), cfg)
		} else {
			c = Gen(int64(seed), cfg)
		}
		if mis := Check(c, opts); mis != nil {
			t.Fatalf("seed %d: %v\nrepro:\n%s", seed, mis, mis.Case.Encode())
		}
	}
}
