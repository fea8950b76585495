package rete_test

import (
	"bytes"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/raceflag"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// TestEncodeNetworkAllocs pins what encoding a network allocates beside
// the production source it ships: the bufio.Writer, its buffer, the
// netWriter, and one sorted variable-name list per production — not one
// scratch array per varint, which is what every wire worker's handshake
// used to pay (743 integers for queens).
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
	var buf bytes.Buffer
	if err := rete.EncodeNetwork(&buf, net); err != nil { // warms buf
		t.Fatal(err)
	}
	var sink int
	source := testing.AllocsPerRun(20, func() {
		for _, name := range net.ProdOrder {
			sink += len(net.Prods[name].Prod.String())
		}
	})
	total := testing.AllocsPerRun(20, func() {
		buf.Reset()
		if err := rete.EncodeNetwork(&buf, net); err != nil {
			t.Fatal(err)
		}
	})
	if own, want := total-source, float64(3+len(net.ProdOrder)); own > want {
		t.Errorf("EncodeNetwork allocates %v beside the %v of Production.String, want at most %v", own, source, want)
	}
}
