package ndlog

import (
	"fmt"
	"strconv"
)

// parseError is a positioned syntax error. Strict parsing (Parse) returns
// it as an error; loose parsing (ParseLoose) converts it into a
// CodeSyntax diagnostic.
type parseError struct {
	pos Pos
	msg string
}

func (e *parseError) Error() string {
	return fmt.Sprintf("ndlog: %d:%d: %s", e.pos.Line, e.pos.Col, e.msg)
}

// errAt builds a parseError at a token's position.
func errAt(t token, format string, args ...interface{}) *parseError {
	return &parseError{pos: t.pos(), msg: fmt.Sprintf(format, args...)}
}

// Parse parses an NDlog program from source text. The syntax:
//
//	// declarations come first
//	table flowEntry/4 base mutable;
//	table packet/3 event base;
//	table packetOut/3 event;
//
//	// rules; uppercase identifiers are variables
//	rule r1 packetOut(@Sw, Hdr, Prt) :-
//	    packet(@Sw, Hdr, InPrt),
//	    flowEntry(@Sw, Prio, Match, Prt),
//	    matches(Hdr, Match),
//	    argmax Prio.
//
// Body items are atoms, assignments (X := expr), boolean constraint
// expressions, "argmax Var" clauses, and "inverse X := expr" clauses
// (hand-written inverse rules per §4.5 of the paper).
//
// Syntax and validation errors cite their source position as line:col.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: NewProgram()}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// ParseLoose parses with error recovery for static analysis: instead of
// stopping at the first problem it records a CodeSyntax diagnostic,
// resynchronizes at the next ';' or '.', and keeps going. Rules are added
// without validation (AnalyzeProgram reports their problems with
// positions), and duplicate declarations or rule names become
// CodeDuplicateDecl / CodeDuplicateRule diagnostics instead of errors.
// The returned program contains everything that parsed; the diagnostics
// are not sorted (callers typically append AnalyzeProgram output and sort
// the union).
func ParseLoose(src string) (*Program, []Diag) {
	toks, err := lex(src)
	if err != nil {
		d := Diag{Severity: Error, Code: CodeSyntax, Msg: err.Error()}
		if pe, ok := err.(*parseError); ok {
			d.Pos, d.Msg = pe.pos, pe.msg
		}
		return NewProgram(), []Diag{d}
	}
	p := &parser{toks: toks, prog: NewProgram(), loose: true}
	// parseProgram never returns an error in loose mode.
	_ = p.parseProgram()
	return p.prog, p.diags
}

// MustParse is Parse that panics on error; for embedded scenario sources.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks []token
	pos  int
	prog *Program
	// loose enables error recovery: errors become diags and the parser
	// resynchronizes at the next statement terminator.
	loose bool
	diags []Diag
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// expectSym consumes the next token when it is the expected symbol. On a
// mismatch it reports the error WITHOUT consuming the offending token:
// loose-mode recovery resynchronizes at the next 'table'/'rule' keyword,
// and if the mismatched token is that very keyword (a statement missing
// its terminator), consuming it would silently swallow the whole next
// statement and anchor later diagnostics at the wrong position.
func (p *parser) expectSym(s string) error {
	t := p.peek()
	if t.kind != tokSym || t.text != s {
		return errAt(t, "expected %q, got %s", s, t)
	}
	p.advance()
	return nil
}

func (p *parser) atSym(s string) bool {
	t := p.peek()
	return t.kind == tokSym && t.text == s
}

func (p *parser) atIdent(s string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == s
}

// recover converts a parse error into a CodeSyntax diagnostic and skips
// ahead to the next statement start ('table' or 'rule', which cannot
// occur inside a statement) so the declarations and rules after the
// error still parse.
func (p *parser) recover(err error) {
	d := Diag{Severity: Error, Code: CodeSyntax, Msg: err.Error()}
	if pe, ok := err.(*parseError); ok {
		d.Pos, d.Msg = pe.pos, pe.msg
	}
	p.diags = append(p.diags, d)
	for {
		t := p.peek()
		if t.kind == tokEOF {
			return
		}
		if t.kind == tokIdent && (t.text == "table" || t.text == "rule") {
			return
		}
		p.advance()
	}
}

func (p *parser) parseProgram() error {
	for {
		t := p.peek()
		var err error
		switch {
		case t.kind == tokEOF:
			return nil
		case t.kind == tokIdent && t.text == "table":
			err = p.parseDecl()
		case t.kind == tokIdent && t.text == "rule":
			err = p.parseRule()
		default:
			err = errAt(t, "expected 'table' or 'rule', got %s", t)
			if p.loose {
				p.recover(err)
				continue
			}
			return err
		}
		if err != nil {
			if p.loose {
				p.recover(err)
				continue
			}
			return err
		}
	}
}

func (p *parser) parseDecl() error {
	p.advance() // "table"
	name := p.advance()
	if name.kind != tokIdent {
		return errAt(name, "expected table name, got %s", name)
	}
	if err := p.expectSym("/"); err != nil {
		return err
	}
	ar := p.advance()
	if ar.kind != tokNumber {
		return errAt(ar, "expected arity, got %s", ar)
	}
	arity, err := strconv.Atoi(ar.text)
	if err != nil || arity < 0 {
		return errAt(ar, "bad arity %q", ar.text)
	}
	d := TableDecl{Name: name.text, Arity: arity, Pos: name.pos()}
	for {
		t := p.peek()
		if t.kind == tokIdent {
			switch t.text {
			case "event":
				d.Event = true
				p.advance()
				continue
			case "base":
				d.Base = true
				p.advance()
				continue
			case "mutable":
				d.Mutable = true
				p.advance()
				continue
			case "key":
				p.advance()
				if err := p.expectSym("("); err != nil {
					return err
				}
				for !p.atSym(")") {
					it := p.advance()
					if it.kind != tokNumber {
						return errAt(it, "key() expects column indices")
					}
					idx, err := strconv.Atoi(it.text)
					if err != nil || idx < 0 || idx >= arity {
						return errAt(it, "key index %q out of range", it.text)
					}
					d.Key = append(d.Key, idx)
					if p.atSym(",") {
						p.advance()
					}
				}
				if err := p.expectSym(")"); err != nil {
					return err
				}
				continue
			}
		}
		break
	}
	if err := p.expectSym(";"); err != nil {
		return err
	}
	if p.loose && p.prog.Decl(d.Name) != nil {
		p.diags = append(p.diags, Diag{Pos: d.Pos, Severity: Error, Code: CodeDuplicateDecl,
			Msg: fmt.Sprintf("duplicate table declaration %s", d.Name)})
		return nil
	}
	return p.prog.Declare(d)
}

func (p *parser) parseRule() error {
	p.advance() // "rule"
	name := p.advance()
	if name.kind != tokIdent {
		return errAt(name, "expected rule name, got %s", name)
	}
	head, err := p.parseAtom()
	if err != nil {
		return err
	}
	if err := p.expectSym(":-"); err != nil {
		return err
	}
	r := Rule{Name: name.text, Head: head, Pos: name.pos()}
	for {
		if err := p.parseBodyItem(&r); err != nil {
			return err
		}
		if p.atSym(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSym("."); err != nil {
		return err
	}
	if p.loose {
		if p.prog.Rule(r.Name) != nil {
			p.diags = append(p.diags, Diag{Pos: r.Pos, Severity: Error, Code: CodeDuplicateRule,
				Msg: fmt.Sprintf("duplicate rule name %s", r.Name)})
			return nil
		}
		p.prog.addRuleUnchecked(r)
		return nil
	}
	return p.prog.AddRule(r)
}

// peekAt returns the token n positions ahead, clamped to the trailing EOF.
func (p *parser) peekAt(n int) token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) parseBodyItem(r *Rule) error {
	t := p.peek()
	switch {
	case (t.kind == tokSym && t.text == "!" || t.kind == tokIdent && t.text == "not") &&
		p.peekAt(1).kind == tokIdent &&
		p.peekAt(2).kind == tokSym && p.peekAt(2).text == "(":
		// Negated body atom: `!t(...)` or `not t(...)`. Parsed and
		// analyzed (safety, the demand, stratification) but not
		// executable: AnalyzeProgram reports CodeNegation, so strict
		// Parse and Engine.Run refuse the program while `diffprov vet`
		// still reasons about it.
		p.advance() // "!" or "not"
		a, err := p.parseAtom()
		if err != nil {
			return err
		}
		a.Negated = true
		r.Body = append(r.Body, a)
		return nil

	case t.kind == tokIdent && t.text == "argmax":
		p.advance()
		v := p.advance()
		if v.kind != tokVar {
			return errAt(v, "argmax expects a variable, got %s", v)
		}
		if r.ArgMax != "" {
			return errAt(v, "duplicate argmax clause")
		}
		r.ArgMax = string(v.text)
		return nil

	case t.kind == tokIdent && t.text == "inverse":
		p.advance()
		v := p.advance()
		if v.kind != tokVar {
			return errAt(v, "inverse expects a variable, got %s", v)
		}
		if err := p.expectSym(":="); err != nil {
			return err
		}
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		r.Inverses = append(r.Inverses, Assign{Var: v.text, Expr: e})
		return nil

	case t.kind == tokVar && p.toks[p.pos+1].kind == tokSym && p.toks[p.pos+1].text == ":=":
		p.advance()
		p.advance()
		if p.atIdent("count") {
			p.advance()
			if err := p.expectSym("("); err != nil {
				return err
			}
			if err := p.expectSym(")"); err != nil {
				return err
			}
			if r.CountVar != "" {
				return errAt(t, "duplicate count() clause")
			}
			r.CountVar = t.text
			return nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		r.Assigns = append(r.Assigns, Assign{Var: t.text, Expr: e})
		return nil

	case t.kind == tokIdent && p.toks[p.pos+1].kind == tokSym && p.toks[p.pos+1].text == "(" &&
		(p.prog.Decl(t.text) != nil || !HasBuiltin(t.text)):
		// A declared table is always an atom. An identifier that is
		// neither a declared table nor a builtin is parsed as an atom too,
		// so the analyzer can report "unknown table" with a position
		// rather than the parser rejecting it as an unknown function.
		a, err := p.parseAtom()
		if err != nil {
			return err
		}
		r.Body = append(r.Body, a)
		return nil

	default:
		// A constraint expression (comparison or boolean builtin call).
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		r.Where = append(r.Where, e)
		return nil
	}
}

func (p *parser) parseAtom() (Atom, error) {
	name := p.advance()
	if name.kind != tokIdent {
		return Atom{}, errAt(name, "expected predicate name, got %s", name)
	}
	if err := p.expectSym("("); err != nil {
		return Atom{}, err
	}
	a := Atom{Table: name.text, Pos: name.pos()}
	if p.atSym("@") {
		p.advance()
		loc, err := p.parsePrimary()
		if err != nil {
			return Atom{}, err
		}
		a.Loc = loc
		if p.atSym(",") {
			p.advance()
		}
	}
	for !p.atSym(")") {
		e, err := p.parseExpr()
		if err != nil {
			return Atom{}, err
		}
		a.Args = append(a.Args, e)
		if p.atSym(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return Atom{}, err
	}
	return a, nil
}

// Operator precedence levels, loosest first.
var precLevels = [][]string{
	{"==", "!=", "<", "<=", ">", ">="},
	{"|"},
	{"^"},
	{"&"},
	{"<<", ">>"},
	{"+", "-", "++"},
	{"*", "/", "%"},
}

var symToOp = map[string]BinOp{
	"==": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	"|": OpOr, "^": OpXor, "&": OpAnd, "<<": OpShl, ">>": OpShr,
	"+": OpAdd, "-": OpSub, "++": OpConcat, "*": OpMul, "/": OpDiv, "%": OpMod,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseLevel(0) }

func (p *parser) parseLevel(level int) (Expr, error) {
	if level == len(precLevels) {
		return p.parsePrimary()
	}
	left, err := p.parseLevel(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSym || !contains(precLevels[level], t.text) {
			return left, nil
		}
		p.advance()
		right, err := p.parseLevel(level + 1)
		if err != nil {
			return nil, err
		}
		left = Bin{Op: symToOp[t.text], L: left, R: right}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.advance()
	switch t.kind {
	case tokVar:
		return Var(t.text), nil
	case tokNumber, tokString, tokHashID:
		v, err := ParseValue(t.text)
		if err != nil {
			return nil, errAt(t, "%v", err)
		}
		return Const{V: v}, nil
	case tokIdent:
		switch t.text {
		case "true":
			return Const{V: Bool(true)}, nil
		case "false":
			return Const{V: Bool(false)}, nil
		}
		if p.atSym("(") {
			p.advance()
			c := Call{Fn: t.text}
			for !p.atSym(")") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.Args = append(c.Args, e)
				if p.atSym(",") {
					p.advance()
					continue
				}
				break
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			// Unknown functions are reported by the analyzer (CodeBuiltin)
			// with a position, not rejected here: Rule.Validate still makes
			// strict Parse fail on them.
			return c, nil
		}
		// Bare lowercase identifier: treat as a string constant (node
		// names like s1, h2 appear as location constants).
		return Const{V: Str(t.text)}, nil
	case tokSym:
		if t.text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "-" {
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return Bin{Op: OpSub, L: Const{V: Int(0)}, R: e}, nil
		}
	}
	return nil, errAt(t, "unexpected token %s in expression", t)
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
