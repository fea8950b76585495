package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGeneratorTextPinned pins every working-memory generator's text
// by digest: the generators build it in one buffer, and what they
// build is the text the repeated concatenation they replaced made, so
// every seeded run, transcript and golden made from it stays the same.
func TestGeneratorTextPinned(t *testing.T) {
	for _, tc := range []struct {
		name, text string
		n          int
		digest     string
	}{
		{"queens-4", QueensWMEs(4), 2144, "d85ffa226e74c85a"},
		{"queens-8", QueensWMEs(8), 18164, "f38e8779827af6dc"},
		{"tourney-like-8x6", TourneyLikeWMEs(8, 6), 306, "72481b6b7616c776"},
		{"tourney-like-40x30", TourneyLikeWMEs(40, 30), 1494, "fe22f59850db5ab8"},
		{"blocks-8", BlocksWorldWMEs(8), 601, "8abba32a580ba0c7"},
		{"rubik-like-6x8", RubikLikeWMEs(6, 8), 1804, "d3b49711c32ebee9"},
		{"configurator", ConfiguratorWMEs(
			ConfiguratorOrder{ID: "o1", CPUs: 1, Disks: 2, PowerMax: 400},
			ConfiguratorOrder{ID: "x", CPUs: 12, Disks: 16, PowerMax: 1500}), -1, "6ba07efa17529dbc"},
		{"configurator-empty", ConfiguratorWMEs(), 0, "e3b0c44298fc1c14"},
	} {
		sum := sha256.Sum256([]byte(tc.text))
		if got := hex.EncodeToString(sum[:8]); got != tc.digest || tc.n >= 0 && len(tc.text) != tc.n {
			t.Errorf("%s: %d bytes, digest %s; want %d, %s\n%s", tc.name, len(tc.text), got, tc.n, tc.digest, tc.text)
		}
	}
}
