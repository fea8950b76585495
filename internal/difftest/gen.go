package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"mpcrete/internal/ops5"
)

// GenConfig tunes the shape of generated programs. The zero value is
// usable: every field defaults to the value documented on it.
type GenConfig struct {
	// Productions is the number of productions (default 4).
	Productions int
	// MaxCEs bounds condition elements per production (default 3).
	MaxCEs int
	// Classes is the class alphabet size (default 3).
	Classes int
	// Attrs is the number of attributes per class (default 3). Even
	// attribute indexes hold numbers, odd ones symbols, so generated
	// tests and assignments stay type-consistent.
	Attrs int
	// Values is the per-type constant pool size (default 3). Small
	// pools make independently generated wmes collide on join tests,
	// which is what drives tokens through the two-input nodes.
	Values int
	// EqDensity is the probability that a condition-element attribute
	// test reuses an already-bound variable — an inter-CE equality
	// join test (default 0.6). High density produces discriminating
	// hashes (tokens spread by value); zero density produces the
	// Tourney pathology where every token hashes to one bucket.
	EqDensity float64
	// NegationProb is the probability a non-first CE is negated
	// (default 0.2).
	NegationProb float64
	// PredProb is the probability a constant test uses a relational
	// predicate instead of equality (default 0.15).
	PredProb float64
	// MakeWeight, RemoveWeight, ModifyWeight set the RHS action mix
	// (defaults 3, 2, 2).
	MakeWeight, RemoveWeight, ModifyWeight int
	// MaxActions bounds RHS actions per production (default 2).
	MaxActions int
	// InitialWMEs is the size of the random initial store (default 10).
	InitialWMEs int
}

// haltProb is the probability a production ends with halt.
const haltProb = 0.05

func (cfg GenConfig) withDefaults() GenConfig {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&cfg.Productions, 4)
	def(&cfg.MaxCEs, 3)
	def(&cfg.Classes, 3)
	def(&cfg.Attrs, 3)
	def(&cfg.Values, 3)
	def(&cfg.MakeWeight, 3)
	def(&cfg.RemoveWeight, 2)
	def(&cfg.ModifyWeight, 2)
	def(&cfg.MaxActions, 2)
	def(&cfg.InitialWMEs, 10)
	if cfg.EqDensity == 0 {
		cfg.EqDensity = 0.6
	}
	if cfg.NegationProb == 0 {
		cfg.NegationProb = 0.2
	}
	if cfg.PredProb == 0 {
		cfg.PredProb = 0.15
	}
	return cfg
}

// ConfigFromBytes derives a GenConfig from fuzzer-controlled knob
// bytes, so native fuzzing can mutate the program shape as well as the
// seed. Every byte string maps to a valid configuration.
func ConfigFromBytes(knobs []byte) GenConfig {
	at := func(i int, lo, span int) int {
		if i >= len(knobs) {
			return 0
		}
		return lo + int(knobs[i])%span
	}
	frac := func(i int) float64 {
		if i >= len(knobs) {
			return 0
		}
		return float64(knobs[i]%100) / 100
	}
	return GenConfig{
		Productions:  at(0, 1, 6),
		MaxCEs:       at(1, 1, 4),
		Classes:      at(2, 1, 4),
		Attrs:        at(3, 1, 4),
		Values:       at(4, 1, 4),
		EqDensity:    frac(5),
		NegationProb: frac(6) / 2,
		PredProb:     frac(7) / 2,
		MakeWeight:   at(8, 1, 5),
		RemoveWeight: at(9, 1, 5),
		ModifyWeight: at(10, 1, 5),
		MaxActions:   at(11, 1, 3),
		InitialWMEs:  at(12, 1, 16),
	}
}

// generator carries the per-Gen state: the rng and the class/attribute
// alphabet. Attribute f<i> holds numbers for even i, symbols for odd
// i, across every class, so any test or assignment the generator emits
// is type-consistent by construction.
type generator struct {
	rng *rand.Rand
	cfg GenConfig
}

func (g *generator) class(i int) string { return fmt.Sprintf("c%d", i) }
func (g *generator) attr(i int) string  { return fmt.Sprintf("f%d", i) }
func (g *generator) attrNumeric(i int) bool {
	return i%2 == 0
}

// constant draws from the small typed pool.
func (g *generator) constant(numeric bool) ops5.Value {
	v := g.rng.Intn(g.cfg.Values)
	if numeric {
		return ops5.N(float64(v))
	}
	return ops5.S(fmt.Sprintf("s%d", v))
}

// boundVar holds a variable bound by a defining occurrence in a
// positive CE, with its type.
type boundVar struct {
	name    string
	numeric bool
}

// Gen produces a random, well-typed, compilable engine-level case:
// every production validates, the program compiles, and the initial
// store assigns every attribute of every wme. The same (seed, cfg)
// pair always yields the same case.
func Gen(seed int64, cfg GenConfig) Case {
	cfg = cfg.withDefaults()
	g := &generator{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	prog := g.program()
	var wmes []string
	for i := 0; i < cfg.InitialWMEs; i++ {
		wmes = append(wmes, g.wme().String())
	}
	return Case{
		Name:    fmt.Sprintf("gen-%d", seed),
		ProgSrc: prog.String(),
		WMESrc:  strings.Join(wmes, "\n"),
	}
}

// GenScript produces a matcher-level case: the same program shapes,
// driven by a script of per-cycle change lists that includes
// same-cycle add-then-delete transients — the modify-shaped pattern
// the engine act phase only produces implicitly.
func GenScript(seed int64, cfg GenConfig) Case {
	cfg = cfg.withDefaults()
	g := &generator{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	prog := g.program()

	cycles := 3 + g.rng.Intn(6)
	var script [][]ScriptOp
	adds := 0
	live := []int{} // add indexes (1-based) still in wm
	for c := 0; c < cycles; c++ {
		var cyc []ScriptOp
		n := 1 + g.rng.Intn(5)
		for i := 0; i < n; i++ {
			switch {
			case len(live) > 0 && g.rng.Float64() < 0.3:
				j := g.rng.Intn(len(live))
				cyc = append(cyc, ScriptOp{Remove: live[j]})
				live = append(live[:j], live[j+1:]...)
			case g.rng.Float64() < 0.25:
				// Same-cycle transient: add immediately followed by its
				// own delete.
				adds++
				cyc = append(cyc, ScriptOp{WME: g.wme()}, ScriptOp{Remove: adds})
			default:
				adds++
				cyc = append(cyc, ScriptOp{WME: g.wme()})
				live = append(live, adds)
			}
		}
		script = append(script, cyc)
	}
	return Case{
		Name:    fmt.Sprintf("genscript-%d", seed),
		ProgSrc: prog.String(),
		Script:  script,
	}
}

// program builds a full random program; it retries any production that
// fails validation (rare — the construction is valid by design) and is
// guaranteed to return a compilable program because every emitted form
// is within the compiler's supported subset.
func (g *generator) program() *ops5.Program {
	prog := &ops5.Program{Literalizes: map[string][]string{}}
	for c := 0; c < g.cfg.Classes; c++ {
		var attrs []string
		for a := 0; a < g.cfg.Attrs; a++ {
			attrs = append(attrs, g.attr(a))
		}
		prog.Literalizes[g.class(c)] = attrs
	}
	for i := 0; i < g.cfg.Productions; i++ {
		for {
			p := g.production(i)
			if p.Validate() == nil {
				prog.Productions = append(prog.Productions, p)
				break
			}
		}
	}
	return prog
}

func (g *generator) production(idx int) *ops5.Production {
	p := &ops5.Production{Name: fmt.Sprintf("p%d", idx)}
	nCE := 1 + g.rng.Intn(g.cfg.MaxCEs)
	var bound []boundVar
	nextVar := 0
	for i := 0; i < nCE; i++ {
		negated := i > 0 && g.rng.Float64() < g.cfg.NegationProb
		ce := ops5.CE{Class: g.class(g.rng.Intn(g.cfg.Classes)), Negated: negated}
		nTests := 1 + g.rng.Intn(g.cfg.Attrs)
		seen := map[int]bool{}
		for t := 0; t < nTests; t++ {
			a := g.rng.Intn(g.cfg.Attrs)
			if seen[a] {
				continue
			}
			seen[a] = true
			numeric := g.attrNumeric(a)
			term := g.term(numeric, negated, &bound, &nextVar)
			ce.Tests = append(ce.Tests, ops5.AttrTest{Attr: g.attr(a), Terms: []ops5.Term{term}})
		}
		p.LHS = append(p.LHS, ce)
	}
	g.rhs(p, bound)
	return p
}

// term picks one attribute test. Negated CEs never define variables
// (so every RHS-visible variable has a positive defining occurrence,
// per Production.Validate); positive CEs mix defining occurrences,
// equality tests against prior bindings, and constant tests.
func (g *generator) term(numeric, negated bool, bound *[]boundVar, nextVar *int) ops5.Term {
	if v, ok := g.pickBound(*bound, numeric); ok && g.rng.Float64() < g.cfg.EqDensity {
		return ops5.Term{Op: ops5.OpEq, Var: v}
	}
	if !negated && g.rng.Float64() < 0.4 {
		name := fmt.Sprintf("v%d", *nextVar)
		*nextVar++
		*bound = append(*bound, boundVar{name: name, numeric: numeric})
		return ops5.Term{Op: ops5.OpEq, Var: name}
	}
	c := g.constant(numeric)
	op := ops5.OpEq
	if g.rng.Float64() < g.cfg.PredProb {
		if numeric {
			op = []ops5.PredOp{ops5.OpNe, ops5.OpLt, ops5.OpLe, ops5.OpGt, ops5.OpGe}[g.rng.Intn(5)]
		} else {
			op = ops5.OpNe
		}
	}
	return ops5.Term{Op: op, Const: &c}
}

// pickBound selects a random bound variable of the wanted type.
func (g *generator) pickBound(bound []boundVar, numeric bool) (string, bool) {
	var cands []string
	for _, v := range bound {
		if v.numeric == numeric {
			cands = append(cands, v.name)
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	return cands[g.rng.Intn(len(cands))], true
}

// rhs emits 1..MaxActions weighted make/remove/modify actions plus an
// occasional trailing halt. remove and modify target positive CEs
// only, as Validate requires.
func (g *generator) rhs(p *ops5.Production, bound []boundVar) {
	var positives []int // 1-based CE indexes
	for i, ce := range p.LHS {
		if !ce.Negated {
			positives = append(positives, i+1)
		}
	}
	total := g.cfg.MakeWeight + g.cfg.RemoveWeight + g.cfg.ModifyWeight
	n := 1 + g.rng.Intn(g.cfg.MaxActions)
	for i := 0; i < n; i++ {
		w := g.rng.Intn(total)
		switch {
		case w < g.cfg.MakeWeight:
			p.RHS = append(p.RHS, g.makeAction(bound))
		case w < g.cfg.MakeWeight+g.cfg.RemoveWeight:
			p.RHS = append(p.RHS, ops5.Action{
				Kind:      ops5.ActRemove,
				CEIndexes: []int{positives[g.rng.Intn(len(positives))]},
			})
		default:
			a := g.makeAction(bound)
			a.Kind = ops5.ActModify
			a.Class = ""
			a.CEIndexes = []int{positives[g.rng.Intn(len(positives))]}
			p.RHS = append(p.RHS, a)
		}
	}
	if g.rng.Float64() < haltProb {
		p.RHS = append(p.RHS, ops5.Action{Kind: ops5.ActHalt})
	}
}

// makeAction builds a make with 1..Attrs type-consistent assignments:
// constants, bound variables, or (numeric) small compute chains. All
// arithmetic is + - * or division by a constant drawn from 1.., so no
// generated program can hit the interpreter's division-by-zero error
// path nondeterministically.
func (g *generator) makeAction(bound []boundVar) ops5.Action {
	a := ops5.Action{Kind: ops5.ActMake, Class: g.class(g.rng.Intn(g.cfg.Classes))}
	nAssign := 1 + g.rng.Intn(g.cfg.Attrs)
	seen := map[int]bool{}
	for i := 0; i < nAssign; i++ {
		at := g.rng.Intn(g.cfg.Attrs)
		if seen[at] {
			continue
		}
		seen[at] = true
		a.Assigns = append(a.Assigns, ops5.AttrAssign{
			Attr: g.attr(at),
			Expr: g.expr(g.attrNumeric(at), bound),
		})
	}
	return a
}

func (g *generator) expr(numeric bool, bound []boundVar) ops5.Expr {
	if v, ok := g.pickBound(bound, numeric); ok && g.rng.Float64() < 0.5 {
		if numeric && g.rng.Float64() < 0.3 {
			// (compute <v> op const): keeps derived values drifting so
			// modify loops change state instead of idling at a fixpoint.
			c := g.constant(true)
			op := []ops5.ExprOp{ops5.ExprAdd, ops5.ExprSub, ops5.ExprMul}[g.rng.Intn(3)]
			return ops5.Expr{
				Operands: []ops5.Expr{{Var: v}, {Const: &c}},
				Ops:      []ops5.ExprOp{op},
			}
		}
		return ops5.Expr{Var: v}
	}
	c := g.constant(numeric)
	return ops5.Expr{Const: &c}
}

// wme builds a random store element with every attribute assigned.
func (g *generator) wme() *ops5.WME {
	w := ops5.NewWME(g.class(g.rng.Intn(g.cfg.Classes)))
	for a := 0; a < g.cfg.Attrs; a++ {
		w.Set(g.attr(a), g.constant(g.attrNumeric(a)))
	}
	return w
}
