package ops5

import (
	"fmt"
)

// parser implements a recursive-descent parser over the lexer's tokens.
type parser struct {
	lex *lexer
	tok token // current token
}

func newParser(src string) (*parser, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return p.tok, p.errf("expected %s, found %s", k, p.tok)
	}
	t := p.tok
	return t, p.advance()
}

// ParseProgram parses OPS5 source text containing literalize
// declarations and productions.
func ParseProgram(src string) (*Program, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	prog := &Program{Literalizes: map[string][]string{}}
	for p.tok.kind != tokEOF {
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		head, err := p.expect(tokSym)
		if err != nil {
			return nil, err
		}
		switch head.text {
		case "literalize":
			class, err := p.expect(tokSym)
			if err != nil {
				return nil, err
			}
			var attrs []string
			for p.tok.kind == tokSym {
				attrs = append(attrs, p.tok.text)
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			prog.Literalizes[class.text] = attrs
		case "p":
			prod, err := p.parseProduction()
			if err != nil {
				return nil, err
			}
			if err := prod.Validate(); err != nil {
				return nil, err
			}
			prog.Productions = append(prog.Productions, prod)
		default:
			return nil, p.errf("unknown top-level form %q (want literalize or p)", head.text)
		}
	}
	return prog, nil
}

// ParseProduction parses a single (p name ... --> ...) form.
func ParseProduction(src string) (*Production, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	head, err := p.expect(tokSym)
	if err != nil {
		return nil, err
	}
	if head.text != "p" {
		return nil, p.errf("expected (p ...), found (%s ...)", head.text)
	}
	prod, err := p.parseProduction()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("trailing input after production")
	}
	if err := prod.Validate(); err != nil {
		return nil, err
	}
	return prod, nil
}

// parseProduction parses the remainder of a production after "(p".
func (p *parser) parseProduction() (*Production, error) {
	name, err := p.expect(tokSym)
	if err != nil {
		return nil, err
	}
	prod := &Production{Name: name.text}
	for p.tok.kind != tokArrow {
		ce, err := p.parseCE()
		if err != nil {
			return nil, err
		}
		prod.LHS = append(prod.LHS, ce)
	}
	if err := p.advance(); err != nil { // consume -->
		return nil, err
	}
	for p.tok.kind != tokRParen {
		act, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		prod.RHS = append(prod.RHS, act)
	}
	return prod, p.advance() // consume ')'
}

func (p *parser) parseCE() (CE, error) {
	var ce CE
	if p.tok.kind == tokMinus {
		ce.Negated = true
		if err := p.advance(); err != nil {
			return ce, err
		}
	}
	if _, err := p.expect(tokLParen); err != nil {
		return ce, err
	}
	class, err := p.expect(tokSym)
	if err != nil {
		return ce, err
	}
	ce.Class = class.text
	for p.tok.kind == tokAttr {
		attr := p.tok.text
		if err := p.advance(); err != nil {
			return ce, err
		}
		terms, err := p.parseTermGroup()
		if err != nil {
			return ce, err
		}
		ce.Tests = append(ce.Tests, AttrTest{Attr: attr, Terms: terms})
	}
	_, err = p.expect(tokRParen)
	return ce, err
}

// parseTermGroup parses a single term or a conjunctive {...} group.
func (p *parser) parseTermGroup() ([]Term, error) {
	if p.tok.kind == tokLBrace {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var terms []Term
		for p.tok.kind != tokRBrace {
			t, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			terms = append(terms, t)
		}
		if len(terms) == 0 {
			return nil, p.errf("empty conjunctive test {}")
		}
		return terms, p.advance()
	}
	t, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return []Term{t}, nil
}

func (p *parser) parseTerm() (Term, error) {
	t := Term{Op: OpEq}
	if p.tok.kind == tokPred {
		switch p.tok.text {
		case "=":
			t.Op = OpEq
		case "<>":
			t.Op = OpNe
		case "<":
			t.Op = OpLt
		case "<=":
			t.Op = OpLe
		case ">":
			t.Op = OpGt
		case ">=":
			t.Op = OpGe
		case "<=>":
			t.Op = OpSameType
		}
		if err := p.advance(); err != nil {
			return t, err
		}
	}
	switch p.tok.kind {
	case tokSym:
		v := S(p.tok.text)
		t.Const = &v
		return t, p.advance()
	case tokNum:
		v := N(p.tok.num)
		t.Const = &v
		return t, p.advance()
	case tokVar:
		t.Var = p.tok.text
		return t, p.advance()
	case tokDLAngle:
		if t.Op != OpEq {
			return t, p.errf("disjunction <<...>> cannot follow a predicate")
		}
		if err := p.advance(); err != nil {
			return t, err
		}
		for p.tok.kind != tokDRAngle {
			switch p.tok.kind {
			case tokSym:
				t.Disj = append(t.Disj, S(p.tok.text))
			case tokNum:
				t.Disj = append(t.Disj, N(p.tok.num))
			default:
				return t, p.errf("disjunction may contain only constants, found %s", p.tok)
			}
			if err := p.advance(); err != nil {
				return t, err
			}
		}
		if len(t.Disj) == 0 {
			return t, p.errf("empty disjunction <<>>")
		}
		return t, p.advance()
	}
	return t, p.errf("expected a test operand, found %s", p.tok)
}

func (p *parser) parseAction() (Action, error) {
	var a Action
	if _, err := p.expect(tokLParen); err != nil {
		return a, err
	}
	head, err := p.expect(tokSym)
	if err != nil {
		return a, err
	}
	switch head.text {
	case "make":
		a.Kind = ActMake
		class, err := p.expect(tokSym)
		if err != nil {
			return a, err
		}
		a.Class = class.text
		if a.Assigns, err = p.parseAssigns(); err != nil {
			return a, err
		}
	case "remove":
		a.Kind = ActRemove
		for p.tok.kind == tokNum {
			a.CEIndexes = append(a.CEIndexes, int(p.tok.num))
			if err := p.advance(); err != nil {
				return a, err
			}
		}
		if len(a.CEIndexes) == 0 {
			return a, p.errf("remove requires at least one condition-element number")
		}
	case "modify":
		a.Kind = ActModify
		n, err := p.expect(tokNum)
		if err != nil {
			return a, err
		}
		a.CEIndexes = []int{int(n.num)}
		if a.Assigns, err = p.parseAssigns(); err != nil {
			return a, err
		}
	case "write":
		a.Kind = ActWrite
		for p.tok.kind != tokRParen {
			e, err := p.parseExpr()
			if err != nil {
				return a, err
			}
			a.Args = append(a.Args, e)
		}
	case "bind":
		a.Kind = ActBind
		v, err := p.expect(tokVar)
		if err != nil {
			return a, err
		}
		a.Var = v.text
		if a.BindExpr, err = p.parseExpr(); err != nil {
			return a, err
		}
	case "excise":
		a.Kind = ActExcise
		name, err := p.expect(tokSym)
		if err != nil {
			return a, err
		}
		a.Class = name.text
	case "halt":
		a.Kind = ActHalt
	default:
		return a, p.errf("unknown action %q", head.text)
	}
	_, err = p.expect(tokRParen)
	return a, err
}

func (p *parser) parseAssigns() ([]AttrAssign, error) {
	var assigns []AttrAssign
	for p.tok.kind == tokAttr {
		attr := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, AttrAssign{Attr: attr, Expr: e})
	}
	return assigns, nil
}

// parseExpr parses an RHS value: constant, variable, or (compute ...).
func (p *parser) parseExpr() (Expr, error) {
	switch p.tok.kind {
	case tokSym:
		v := S(p.tok.text)
		return Expr{Const: &v}, p.advance()
	case tokNum:
		v := N(p.tok.num)
		return Expr{Const: &v}, p.advance()
	case tokVar:
		name := p.tok.text
		return Expr{Var: name}, p.advance()
	case tokLParen:
		if err := p.advance(); err != nil {
			return Expr{}, err
		}
		head, err := p.expect(tokSym)
		if err != nil {
			return Expr{}, err
		}
		switch head.text {
		case "compute":
			return p.parseCompute()
		case "crlf":
			// (crlf) is a write-action marker that prints a newline; it
			// is represented as the distinguished symbol "(crlf)".
			if _, err := p.expect(tokRParen); err != nil {
				return Expr{}, err
			}
			v := Crlf
			return Expr{Const: &v}, nil
		default:
			return Expr{}, p.errf("unknown value form (%s ...)", head.text)
		}
	}
	return Expr{}, p.errf("expected a value, found %s", p.tok)
}

// parseCompute parses the operand/operator chain of a compute form up
// to the closing ')'.
func (p *parser) parseCompute() (Expr, error) {
	var e Expr
	operand, err := p.parseExpr()
	if err != nil {
		return e, err
	}
	e.Operands = append(e.Operands, operand)
	for p.tok.kind != tokRParen {
		var op ExprOp
		switch {
		case p.tok.kind == tokMinus:
			op = ExprSub
		case p.tok.kind == tokSym && p.tok.text == "+":
			op = ExprAdd
		case p.tok.kind == tokSym && p.tok.text == "*":
			op = ExprMul
		case p.tok.kind == tokSym && p.tok.text == "//":
			op = ExprDiv
		case p.tok.kind == tokSym && p.tok.text == "mod":
			op = ExprMod
		default:
			return e, p.errf("expected arithmetic operator, found %s", p.tok)
		}
		if err := p.advance(); err != nil {
			return e, err
		}
		operand, err := p.parseExpr()
		if err != nil {
			return e, err
		}
		e.Ops = append(e.Ops, op)
		e.Operands = append(e.Operands, operand)
	}
	if err := p.advance(); err != nil { // consume ')'
		return e, err
	}
	if len(e.Operands) == 1 {
		return e.Operands[0], nil
	}
	return e, nil
}

// ParseWMEs parses a sequence of (class ^attr value ...) forms into
// wmes. Values must be constants. Intended for test fixtures and
// initial working-memory files.
func ParseWMEs(src string) ([]*WME, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var wmes []*WME
	for p.tok.kind != tokEOF {
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		class, err := p.expect(tokSym)
		if err != nil {
			return nil, err
		}
		w := &WME{Class: class.text}
		for p.tok.kind == tokAttr {
			attr := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			switch p.tok.kind {
			case tokSym:
				w.Set(attr, S(p.tok.text))
			case tokNum:
				w.Set(attr, N(p.tok.num))
			default:
				return nil, p.errf("wme attribute ^%s requires a constant, found %s", attr, p.tok)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		wmes = append(wmes, w)
	}
	return wmes, nil
}
