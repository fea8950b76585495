//go:build !race

// Package raceflag tells a test whether the race detector is compiled
// in. Tests that pin an exact count of allocations need to know: under
// the detector sync.Pool drops what it is given at random and escape
// analysis decides differently, so the counts are not the ones pinned,
// and those tests skip.
package raceflag

const Enabled = false
