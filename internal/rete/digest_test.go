package rete_test

import (
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/raceflag"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// bundledNetworks compiles every bundled program as every variant.
func bundledNetworks(t testing.TB, each func(name, variant string, net *rete.Network)) {
	t.Helper()
	for _, name := range workloads.NamedNames() {
		np, err := workloads.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ops5.ParseProgram(np.Program)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range rete.Variants() {
			net, err := rete.CompileVariant(prog.Productions, variant)
			if err != nil {
				t.Fatal(err)
			}
			each(name, variant, net)
		}
	}
}

// TestNetworkDigestPinned holds the compiler to its numbering: the
// digest of every bundled program compiled as every variant. A control
// and a worker process compile the same text apart and agree by
// protocol version alone, so a change here is a new protoVersion in
// internal/transport, never only an edit to this table.
func TestNetworkDigestPinned(t *testing.T) {
	want := map[string]uint64{
		"blocks/shared":         0x26d3db96eca0766a,
		"blocks/unshared":       0x39230178a01b969d,
		"blocks/candc":          0x359b6d7df4938f71,
		"blocks/bounded":        0xf3eb109bfcc8628c,
		"chain/shared":          0xc7958adc707a0746,
		"chain/unshared":        0xc7958adc707a0746,
		"chain/candc":           0x3a666eeb5ee8c994,
		"chain/bounded":         0xe1d9d352eb61f7d4,
		"counter/shared":        0xc46c9e730d81a82d,
		"counter/unshared":      0x2deb2f4fc5524454,
		"counter/candc":         0x898d8793ef4a1d8c,
		"counter/bounded":       0x4ebb832b0da461ed,
		"monkey/shared":         0x2f223db804080931,
		"monkey/unshared":       0xc6c5b087be2e4b52,
		"monkey/candc":          0xf126ba8f86225abf,
		"monkey/bounded":        0xb269de9e9e5157a3,
		"queens/shared":         0xb38deb9abf1e535e,
		"queens/unshared":       0xad7600592afa9d2c,
		"queens/candc":          0x1766410c9da8beb9,
		"queens/bounded":        0x4c088dfb6e6c769c,
		"rubik-like/shared":     0xf921396af2a7bcc3,
		"rubik-like/unshared":   0x55555bd08ae37e16,
		"rubik-like/candc":      0x47a272ee7f039a0c,
		"rubik-like/bounded":    0x6ef8751f14e5e0f7,
		"tourney-like/shared":   0xe7b8ad9e4c88d47e,
		"tourney-like/unshared": 0xbe5e336510851984,
		"tourney-like/candc":    0xe7b8ad9e4c88d47e,
		"tourney-like/bounded":  0x8d80caf51f119093,
	}
	bundledNetworks(t, func(name, variant string, net *rete.Network) {
		key := name + "/" + variant
		if got := net.Digest(); got != want[key] {
			t.Errorf("%s digests to %#x, want %#x", key, got, want[key])
		}
		delete(want, key)
	})
	for key := range want {
		t.Errorf("%s: pinned, but no longer bundled", key)
	}
}

// TestCompileNetworkAllocs: a worker compiles its network in every
// handshake, so parsing and compiling 8-queens may allocate no more than
// decoding the compiled network the handshake once carried did (664),
// and the digest its ready frame carries allocates nothing.
func TestCompileNetworkAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("escape analysis decides differently under the race detector")
	}
	prog, err := ops5.ParseProgram(workloads.Queens)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]string, len(net.ProdOrder))
	for i, name := range net.ProdOrder {
		srcs[i] = net.Prods[name].Prod.String()
	}
	prods := make([]*ops5.Production, len(srcs))
	if n := testing.AllocsPerRun(20, func() {
		for i, src := range srcs {
			if prods[i], err = ops5.ParseProduction(src); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rete.CompileVariant(prods, net.Variant()); err != nil {
			t.Fatal(err)
		}
	}); n > 664 {
		t.Errorf("parsing and compiling 8-queens allocates %v times, want at most 664", n)
	}
	if n := testing.AllocsPerRun(20, func() { net.Digest() }); n != 0 {
		t.Errorf("Digest allocates %v times, want 0", n)
	}
}
