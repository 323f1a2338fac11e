package ndlog

import (
	"strings"
	"testing"
)

const miniProgram = `
// A two-hop forwarding model.
table flowEntry/2 base mutable;
table packet/2 event base;
table delivered/2 event;

rule fwd delivered(@Dst, Hdr, Prt) :-
    packet(@Sw, Hdr, Prt),
    flowEntry(@Sw, Match, Dst),
    matches(Hdr, Match).
`

func TestParseDeclarations(t *testing.T) {
	p, err := Parse(`
table a/2 base mutable;
table b/0 event;
table c/1;
`)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Decl("a")
	if a == nil || a.Arity != 2 || !a.Base || !a.Mutable || a.Event {
		t.Errorf("decl a = %+v", a)
	}
	b := p.Decl("b")
	if b == nil || b.Arity != 0 || !b.Event {
		t.Errorf("decl b = %+v", b)
	}
	c := p.Decl("c")
	if c == nil || c.Arity != 1 || c.Base || c.Event || c.Mutable {
		t.Errorf("decl c = %+v", c)
	}
	if got := p.Tables(); len(got) != 3 || got[0] != "a" {
		t.Errorf("Tables() = %v", got)
	}
}

func TestParseRuleShape(t *testing.T) {
	// The arities in the source below are deliberately consistent.
	src := `
table packet/2 event base;
table flowEntry/2 base mutable;
table out/1 event;
rule r1 out(@Sw, Hdr) :- packet(@Sw, Hdr, P), flowEntry(@Sw, Prio, M), matches(Hdr, M), argmax Prio.
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rule("r1")
	if r == nil {
		t.Fatal("rule r1 missing")
	}
	if r.Head.Table != "out" || len(r.Head.Args) != 1 {
		t.Errorf("head = %v", r.Head)
	}
	if len(r.Body) != 2 {
		t.Errorf("body atoms = %d, want 2", len(r.Body))
	}
	if len(r.Where) != 1 {
		t.Errorf("constraints = %d, want 1", len(r.Where))
	}
	if r.ArgMax != "Prio" {
		t.Errorf("argmax = %q", r.ArgMax)
	}
	if loc, ok := r.Body[0].Loc.(Var); !ok || loc != "Sw" {
		t.Errorf("body[0] loc = %v", r.Body[0].Loc)
	}
}

func TestParseAssignAndInverse(t *testing.T) {
	src := `
table foo/2 base;
table bar/2;
rule r bar(A, D) :- foo(A, C), D := 2*C+1, inverse C := (D-1)/2.
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rule("r")
	if len(r.Assigns) != 1 || r.Assigns[0].Var != "D" {
		t.Fatalf("assigns = %v", r.Assigns)
	}
	v, err := evalIn(r.Assigns[0].Expr, mapEnv{"C": Int(3)})
	if err != nil || v != Int(7) {
		t.Errorf("2*3+1 = %v, %v", v, err)
	}
	if len(r.Inverses) != 1 || r.Inverses[0].Var != "C" {
		t.Fatalf("inverses = %v", r.Inverses)
	}
	iv, err := evalIn(r.Inverses[0].Expr, mapEnv{"D": Int(7)})
	if err != nil || iv != Int(3) {
		t.Errorf("(7-1)/2 = %v, %v", iv, err)
	}
}

func TestParseLiterals(t *testing.T) {
	src := `
table t/5 base;
table h/0 event;
rule r h() :- t(A, B, C, D, E), A == 1.2.3.4, B == 10.0.0.0/8, C == 42, D == "text", E == #ff.
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rule("r")
	if len(r.Where) != 5 {
		t.Fatalf("constraints = %d", len(r.Where))
	}
	wants := []Value{MustParseIP("1.2.3.4"), MustParsePrefix("10.0.0.0/8"), Int(42), Str("text"), ID(255)}
	for i, w := range r.Where {
		b, ok := w.(Bin)
		if !ok || b.Op != OpEq {
			t.Fatalf("constraint %d is %v", i, w)
		}
		c, ok := b.R.(Const)
		if !ok || c.V != wants[i] {
			t.Errorf("literal %d = %v, want %v", i, b.R, wants[i])
		}
	}
}

func TestParseNodeConstants(t *testing.T) {
	src := `
table cfg/1 base;
table out/1 event;
rule r out(@s2, X) :- cfg(@s1, X).
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rule("r")
	hl, ok := r.Head.Loc.(Const)
	if !ok || hl.V != Str("s2") {
		t.Errorf("head loc = %v", r.Head.Loc)
	}
	bl, ok := r.Body[0].Loc.(Const)
	if !ok || bl.V != Str("s1") {
		t.Errorf("body loc = %v", r.Body[0].Loc)
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	src := `
table t/1 base;
table h/0 event;
rule r h() :- t(A), A + 2 * 3 == 7.
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Rule("r").Where[0]
	v, err := evalIn(w, mapEnv{"A": Int(1)})
	if ok := v == Bool(true); err != nil || !ok {
		t.Errorf("1 + 2*3 == 7 should hold: %v %v", ok, err)
	}
}

func TestParseParenAndUnaryMinus(t *testing.T) {
	src := `
table t/1 base;
table h/1 event;
rule r h((A + 1) * -2) :- t(A).
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v, err := evalIn(p.Rule("r").Head.Args[0], mapEnv{"A": Int(2)})
	if err != nil || v != Int(-6) {
		t.Errorf("(2+1)*-2 = %v, %v", v, err)
	}
}

func TestParseErrors(t *testing.T) {
	// Each case is a bad source and a fragment its error message must
	// contain; position fragments (line:col) pin the reported location.
	bad := []struct {
		src  string
		want string
	}{
		{"table;", "1:6: expected table name"},
		{"table t/x;", "1:9: expected arity"},
		{"table t/1", `1:10: expected ";"`},
		{"rule r h() :- .", "1:15: unexpected token"},
		{"table t/1 base; rule r x() :- t(A).", "1:24: "}, // unknown head table x
		{"table t/1 base; table h/0 event; rule r h() :- u(A).", "unknown table u"},
		{"table t/1 base; table h/0 event; rule r h() :- t(A, B).", "arity"},
		{"table t/1 base; table h/1 event; rule r h(B) :- t(A).", "unbound variable B"},
		{"table t/1 base; table h/0 event; rule r h() :- t(A), B < 1.", "unbound variable B"},
		{"table t/1 base; table h/0 event; rule r h() :- t(A), argmax B.", "argmax variable B is unbound"},
		{"table t/1 base; table h/0 event; rule r h() :- t(A), nosuchfn(A).", "unknown table nosuchfn"},
		{"table t/1 base; table t/1;", "duplicate table declaration t"},
		{"frobnicate t/1;", "1:1: expected 'table' or 'rule'"},
		{"table t/1 base; table h/0 event; rule r h() :- t(A). rule r h() :- t(A).", "duplicate rule name r"},
		{`table t/1 base; table h/0 event; rule r h() :- t(A), A == "unterminated.`, "1:59: unterminated string"},
		{"table t/1 base; table h/0 event; rule r h() :- t(A), A == #zz.", "1:59: expected hex digits"},
		{"table t/1 base; table h/0 event; rule r h() :- t(A), A == nope(A).", "unknown function nope"},
	}
	for _, tc := range bad {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error = %q, want fragment %q", tc.src, err, tc.want)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
// leading comment
table t/1 base; // trailing comment
// comment between items
table h/0 event;
rule r h() :- t(A). // done
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	p, err := Parse(miniProgram)
	if err != nil {
		t.Fatal(err)
	}
	rendered := p.String()
	p2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parsing rendered program: %v\n%s", err, rendered)
	}
	if p2.String() != rendered {
		t.Errorf("program rendering is not a fixed point:\n%s\nvs\n%s", rendered, p2.String())
	}
}

func TestRuleString(t *testing.T) {
	p := MustParse(miniProgram)
	s := p.Rule("fwd").String()
	for _, frag := range []string{"rule fwd", "delivered(@Dst", "matches(Hdr, Match)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rule rendering %q missing %q", s, frag)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("nonsense !!!")
}

func TestLexerNumberBoundaries(t *testing.T) {
	toks, err := lex("packet(4.3.2.1).")
	if err != nil {
		t.Fatal(err)
	}
	// ident ( number ) . EOF
	var kinds []tokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	if texts[2] != "4.3.2.1" {
		t.Errorf("IP literal lexed as %q", texts[2])
	}
	if texts[4] != "." {
		t.Errorf("rule terminator lexed as %q (kinds %v)", texts[4], kinds)
	}
}

func TestLexerPrefixVsDivision(t *testing.T) {
	toks, err := lex("10.0.0.0/8 6/2")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "10.0.0.0/8" {
		t.Errorf("prefix lexed as %q", toks[0].text)
	}
	if toks[1].text != "6" || toks[2].text != "/" || toks[3].text != "2" {
		t.Errorf("division lexed as %q %q %q", toks[1].text, toks[2].text, toks[3].text)
	}
}

// TestParserRenderRoundTripProperty: rendering any generated program and
// re-parsing it yields an identical rendering (Parse∘String is a fixed
// point over the constructs the generator covers).
func TestParserRenderRoundTripProperty(t *testing.T) {
	gen := func(seed int64) string {
		r := newTestRand(seed)
		src := "table t0/2 base mutable;\ntable t1/3 base key(0);\ntable ev/2 event base;\ntable h/2;\n"
		ruleCount := 1 + int(r()%4)
		for i := 0; i < ruleCount; i++ {
			switch r() % 4 {
			case 0:
				src += "rule r" + itoa(i) + " h(A, B) :- t0(A, B), A > " + itoa(int(r()%9)) + ".\n"
			case 1:
				src += "rule r" + itoa(i) + " h(A, C) :- ev(A, B), C := B * " + itoa(1+int(r()%5)) + " + A.\n"
			case 2:
				src += "rule r" + itoa(i) + " h(A, N) :- ev(A, B), N := count().\n"
			default:
				src += "rule r" + itoa(i) + " h(@X, A, B) :- t1(@X, A, B, P), t0(@y, A, B), argmax P.\n"
			}
		}
		return src
	}
	for seed := int64(0); seed < 40; seed++ {
		src := gen(seed)
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		rendered := p1.String()
		p2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("seed %d: re-parse: %v\n%s", seed, err, rendered)
		}
		if p2.String() != rendered {
			t.Fatalf("seed %d: not a fixed point:\n%s\nvs\n%s", seed, rendered, p2.String())
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		b = append([]byte{'-'}, b...)
	}
	return string(b)
}

func newTestRand(seed int64) func() uint64 {
	s := uint64(seed)*2862933555777941757 + 3037000493
	return func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// TestParseLooseRecoveryPositions pins the recovery behavior around a
// missing statement terminator: the offending token must NOT be consumed
// by the failed expectation, so the diagnostic anchors at the exact
// token and the following statement still parses. (A former bug had
// expectSym swallow the next statement's 'table'/'rule' keyword, which
// dropped that whole statement and produced spurious downstream
// diagnostics with wrong anchors.)
func TestParseLooseRecoveryPositions(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		wantLine int
		wantCol  int
		check    func(t *testing.T, p *Program)
	}{
		{
			name: "missing semicolon before next decl",
			src: `table a/1
table b/2;
rule r b(@X, X, Y) :- b(@X, X, Y).
`,
			wantLine: 2, wantCol: 1,
			check: func(t *testing.T, p *Program) {
				// The malformed declaration itself is dropped; the
				// statements after the recovery point must all survive.
				if p.Decl("b") == nil {
					t.Error("decl b swallowed by recovery")
				}
				if p.Rule("r") == nil {
					t.Error("rule r lost")
				}
			},
		},
		{
			name: "missing period before next rule",
			src: `table b/2;
rule r1 b(@X, X, Y) :- b(@X, X, Y)
rule r2 b(@X, X, Y) :- b(@X, X, Y).
`,
			wantLine: 3, wantCol: 1,
			check: func(t *testing.T, p *Program) {
				if p.Rule("r2") == nil {
					t.Error("rule r2 swallowed by recovery")
				}
			},
		},
		{
			name: "garbage token anchors exactly",
			src: `table b/2;
rule r1 b(@X, X, ;) :- b(@X, X, Y).
rule r2 b(@X, X, Y) :- b(@X, X, Y).
`,
			wantLine: 2, wantCol: 18,
			check: func(t *testing.T, p *Program) {
				if p.Rule("r2") == nil {
					t.Error("rule r2 lost")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, diags := ParseLoose(tc.src)
			var syntax []Diag
			for _, d := range diags {
				if d.Code == CodeSyntax {
					syntax = append(syntax, d)
				}
			}
			if len(syntax) != 1 {
				t.Fatalf("want exactly one syntax diagnostic, got %v", diags)
			}
			if syntax[0].Pos.Line != tc.wantLine || syntax[0].Pos.Col != tc.wantCol {
				t.Errorf("diagnostic at %s, want %d:%d (%s)", syntax[0].Pos, tc.wantLine, tc.wantCol, syntax[0].Msg)
			}
			tc.check(t, p)
		})
	}
}
