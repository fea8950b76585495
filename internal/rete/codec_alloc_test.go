package rete_test

import (
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/raceflag"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// TestEncodeNetworkAllocs pins what appending a network to a reused
// buffer allocates beside the production source it ships: one sorted
// variable-name list per production — nothing per integer written (743
// for queens), and no writer or buffer of the codec's own.
func TestEncodeNetworkAllocs(t *testing.T) {
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
	buf := rete.AppendNetwork(nil, net) // warms buf
	var sink int
	source := testing.AllocsPerRun(20, func() {
		for _, name := range net.ProdOrder {
			sink += len(net.Prods[name].Prod.String())
		}
	})
	total := testing.AllocsPerRun(20, func() {
		buf = rete.AppendNetwork(buf[:0], net)
	})
	if own, want := total-source, float64(len(net.ProdOrder)); own > want {
		t.Errorf("AppendNetwork allocates %v beside the %v of Production.String, want at most %v", own, source, want)
	}
}
