package ops5

import (
	"math/rand"
	"strings"
	"testing"
)

const clearBlue = `
(p clear-the-blue-block
    (block ^name <block2> ^color blue)
    (block ^name <block2> ^on <block1>)
    (hand ^state free)
    -->
    (remove 2))
`

func TestParseClearBlueBlock(t *testing.T) {
	prod, err := ParseProduction(clearBlue)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Name != "clear-the-blue-block" {
		t.Errorf("name = %q", prod.Name)
	}
	if len(prod.LHS) != 3 {
		t.Fatalf("len(LHS) = %d, want 3", len(prod.LHS))
	}
	ce := prod.LHS[0]
	if ce.Class != "block" || ce.Negated {
		t.Errorf("CE1 = %v", ce)
	}
	if len(ce.Tests) != 2 {
		t.Fatalf("CE1 tests = %d, want 2", len(ce.Tests))
	}
	if ce.Tests[0].Attr != "name" || ce.Tests[0].Terms[0].Var != "block2" {
		t.Errorf("CE1 ^name test = %v", ce.Tests[0])
	}
	if ce.Tests[1].Attr != "color" || ce.Tests[1].Terms[0].Const == nil || !ce.Tests[1].Terms[0].Const.Equal(S("blue")) {
		t.Errorf("CE1 ^color test = %v", ce.Tests[1])
	}
	if len(prod.RHS) != 1 || prod.RHS[0].Kind != ActRemove || prod.RHS[0].CEIndexes[0] != 2 {
		t.Errorf("RHS = %v", prod.RHS)
	}
}

func TestParseNegatedAndPredicates(t *testing.T) {
	src := `
(p check
    (item ^size { > 2 <= 10 } ^kind <> widget ^owner <o>)
    -(lock ^holder <o>)
    (range ^lo < 5 ^hi >= 5 ^tag <=> sym ^alt << a b 3 >>)
    -->
    (make result ^owner <o> ^score (compute 2 * 3 + 1))
    (write found <o> (crlf))
    (halt))
`
	prod, err := ParseProduction(src)
	if err != nil {
		t.Fatal(err)
	}
	ce := prod.LHS[0]
	sz := ce.Tests[0]
	if len(sz.Terms) != 2 || sz.Terms[0].Op != OpGt || sz.Terms[1].Op != OpLe {
		t.Errorf("size terms = %v", sz.Terms)
	}
	if ce.Tests[1].Terms[0].Op != OpNe {
		t.Errorf("kind term = %v", ce.Tests[1].Terms[0])
	}
	if !prod.LHS[1].Negated {
		t.Error("second CE should be negated")
	}
	r := prod.LHS[2]
	if r.Tests[0].Terms[0].Op != OpLt || r.Tests[1].Terms[0].Op != OpGe || r.Tests[2].Terms[0].Op != OpSameType {
		t.Errorf("range tests = %v", r.Tests)
	}
	if d := r.Tests[3].Terms[0].Disj; len(d) != 3 || !d[2].Equal(N(3)) {
		t.Errorf("disjunction = %v", d)
	}
	mk := prod.RHS[0]
	if mk.Kind != ActMake || mk.Class != "result" {
		t.Errorf("make = %v", mk)
	}
	comp := mk.Assigns[1].Expr
	if len(comp.Operands) != 3 || comp.Ops[0] != ExprMul || comp.Ops[1] != ExprAdd {
		t.Errorf("compute = %v", comp)
	}
	if prod.RHS[2].Kind != ActHalt {
		t.Errorf("third action = %v", prod.RHS[2])
	}
}

func TestParseProgramLiteralize(t *testing.T) {
	src := `
; a comment
(literalize block name color on)
(literalize hand state)
(p noop (block ^name <n>) --> (write <n>))
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Literalizes["block"]; len(got) != 3 || got[2] != "on" {
		t.Errorf("literalize block = %v", got)
	}
	if len(prog.Productions) != 1 {
		t.Errorf("productions = %d", len(prog.Productions))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"empty LHS", `(p x --> (halt))`, "empty LHS"},
		{"all negated", `(p x -(a ^v 1) --> (halt))`, "negated"},
		{"remove range", `(p x (a ^v 1) --> (remove 2))`, "out of range"},
		{"modify negated", `(p x (a ^v 1) -(b ^v 1) --> (modify 2 ^v 2))`, "negated condition element"},
		{"unbound var", `(p x (a ^v 1) --> (make b ^v <q>))`, "unbound"},
		{"bad action", `(p x (a ^v 1) --> (frob 1))`, "unknown action"},
		{"empty disj", `(p x (a ^v << >>) --> (halt))`, "empty disjunction"},
		{"pred disj", `(p x (a ^v > << 1 2 >>) --> (halt))`, "disjunction"},
		{"empty conj", `(p x (a ^v { }) --> (halt))`, "empty conjunctive"},
		{"unterminated var", `(p x (a ^v <q) --> (halt))`, "unterminated"},
		{"stray", `(q x)`, "unknown top-level"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if c.name == "stray" {
				_, err = ParseProgram(c.src)
			} else {
				_, err = ParseProduction(c.src)
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestBindMakesVariableAvailable(t *testing.T) {
	src := `(p x (a ^v <n>) --> (bind <m> (compute <n> + 1)) (make a ^v <m>))`
	if _, err := ParseProduction(src); err != nil {
		t.Fatal(err)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	srcs := []string{
		clearBlue,
		`(p p2 (a ^x { <v> > 1 }) -(b ^y <v>) --> (modify 1 ^x (compute <v> - 1)) (write <v>))`,
		`(p p3 (c ^k << on off 0 >>) --> (remove 1) (make c ^k on))`,
	}
	for _, src := range srcs {
		p1, err := ParseProduction(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		p2, err := ParseProduction(p1.String())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", p1.String(), err)
		}
		if p1.String() != p2.String() {
			t.Errorf("round trip mismatch:\n%s\n%s", p1, p2)
		}
	}
}

func TestParseWMEs(t *testing.T) {
	wmes, err := ParseWMEs(`
(block ^name b1 ^color blue)
(block ^name b2 ^on b1)
(hand ^state free ^strength 7.5)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(wmes) != 3 {
		t.Fatalf("len = %d", len(wmes))
	}
	if !wmes[2].Get("strength").Equal(N(7.5)) {
		t.Errorf("strength = %v", wmes[2].Get("strength"))
	}
	if !wmes[0].Get("color").Equal(S("blue")) {
		t.Errorf("color = %v", wmes[0].Get("color"))
	}
	if !wmes[0].Get("missing").Nil() {
		t.Error("missing attribute should be nil")
	}
}

func TestNumberLexing(t *testing.T) {
	wmes, err := ParseWMEs(`(n ^a -3 ^b +4 ^c 2.5 ^d 1e3 ^e -0.5)`)
	if err != nil {
		t.Fatal(err)
	}
	w := wmes[0]
	want := map[string]float64{"a": -3, "b": 4, "c": 2.5, "d": 1000, "e": -0.5}
	for attr, num := range want {
		if got := w.Get(attr); !got.Equal(N(num)) {
			t.Errorf("^%s = %v, want %g", attr, got, num)
		}
	}
}

func TestWMEStringDeterministic(t *testing.T) {
	w := NewWME("block", "name", "b1", "color", "blue", "size", 3)
	want := "(block ^color blue ^name b1 ^size 3)"
	if w.String() != want {
		t.Errorf("String() = %q, want %q", w, want)
	}
	if !w.Equal(w.Clone()) {
		t.Error("clone not equal")
	}
	c := w.Clone()
	c.Set("color", S("red"))
	if w.Equal(c) || w.Get("color").Equal(S("red")) {
		t.Error("clone aliases original")
	}
}

// TestParserNeverPanics feeds random byte strings and mutations of
// valid programs to the parser; it must return errors, not panic.
func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("(){}<>^-+=; \n\tabp123.\"")
	for i := 0; i < 2000; i++ {
		n := rng.Intn(60)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		src := string(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = ParseProgram(src)
			_, _ = ParseProduction(src)
			_, _ = ParseWMEs(src)
		}()
	}
	// Mutations of a valid production.
	valid := `(p x (a ^v <n> ^w { > 1 <= 9 }) -(b ^v << on off >>) --> (modify 1 ^v (compute <n> + 1)))`
	for i := 0; i < 2000; i++ {
		b := []byte(valid)
		for k := 0; k < 1+rng.Intn(3); k++ {
			switch rng.Intn(3) {
			case 0: // delete a byte
				if len(b) > 1 {
					p := rng.Intn(len(b))
					b = append(b[:p], b[p+1:]...)
				}
			case 1: // duplicate a byte
				p := rng.Intn(len(b))
				b = append(b[:p], append([]byte{b[p]}, b[p:]...)...)
			default: // random replace
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		src := string(b)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation %q: %v", src, r)
				}
			}()
			_, _ = ParseProduction(src)
		}()
	}
}
