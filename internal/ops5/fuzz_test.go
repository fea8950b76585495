package ops5_test

import (
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/workloads"
)

// FuzzParseProgram covers the text a process takes from outside: a
// -program file (ops5run, ops5d) and the production source a worker's
// hello carries, which the worker parses one production at a time. No
// text makes the parser panic; what it accepts prints to text it
// accepts again, and that text is a fixed point — which is what lets a
// control ship its productions as source.
func FuzzParseProgram(f *testing.F) {
	for _, name := range workloads.NamedNames() {
		np, err := workloads.Named(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(np.Program)
	}
	f.Add(`(literalize a x y) (p r (a ^x <v> ^y << 1 two >>) - (a ^x {<> <v> > 3}) --> (bind <w> (compute <v> * 2)) (modify 1 ^y <w>) (write <w> (crlf)))`)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ops5.ParseProgram(src)
		if err != nil {
			return
		}
		printed := prog.String()
		again, err := ops5.ParseProgram(printed)
		if err != nil {
			t.Fatalf("printed program is refused: %v\n%s", err, printed)
		}
		if second := again.String(); second != printed {
			t.Fatalf("no fixed point:\n%s\n%s", printed, second)
		}
		for _, p := range prog.Productions {
			text := p.String()
			q, err := ops5.ParseProduction(text)
			if err != nil {
				t.Fatalf("printed production is refused: %v\n%s", err, text)
			}
			if q.String() != text {
				t.Fatalf("production %s: no fixed point:\n%s\n%s", p.Name, text, q.String())
			}
		}
	})
}
