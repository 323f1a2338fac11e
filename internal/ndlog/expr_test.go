package ndlog

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// compileExpr compiles e as a rule's clause would be and returns the clause
// with a frame binding vars. unknown, when not empty, gets a slot even if e
// does not mention it; its slot is returned.
func compileExpr(e Expr, vars mapEnv, unknown string) (clause, []Value, int) {
	c := &compiler{slots: map[string]int{}}
	cl := c.clause(e)
	slot := -1
	if unknown != "" {
		slot = c.slot(unknown)
	}
	f := make([]Value, len(c.vars))
	for name, v := range vars {
		if s, ok := c.slots[name]; ok {
			f[s] = v
		}
	}
	return cl, f, slot
}

// evalIn evaluates e compiled, with the named variables bound.
func evalIn(e Expr, vars mapEnv) (Value, error) {
	cl, f, _ := compileExpr(e, vars, "")
	return cl.e.eval(f)
}

// invertIn inverts e compiled for the unknown variable, the others bound as
// vars binds them; checked forward-checks the candidates as Invert does.
func invertIn(e Expr, out Value, unknown string, vars mapEnv, checked bool) ([]Value, error) {
	cl, f, slot := compileExpr(e, vars, unknown)
	if checked {
		return invertChecked(cl.e, f, out, slot, nil)
	}
	return invert(cl.e, f, out, slot, nil)
}

func TestBinArithmetic(t *testing.T) {
	env := mapEnv{"X": Int(10), "Y": Int(3)}
	tests := []struct {
		expr Expr
		want Value
	}{
		{B(OpAdd, Var("X"), Var("Y")), Int(13)},
		{B(OpSub, Var("X"), Var("Y")), Int(7)},
		{B(OpMul, Var("X"), Var("Y")), Int(30)},
		{B(OpDiv, Var("X"), Var("Y")), Int(3)},
		{B(OpMod, Var("X"), Var("Y")), Int(1)},
		{B(OpAnd, Var("X"), Var("Y")), Int(2)},
		{B(OpOr, Var("X"), Var("Y")), Int(11)},
		{B(OpXor, Var("X"), Var("Y")), Int(9)},
		{B(OpShl, Var("X"), C(Int(2))), Int(40)},
		{B(OpShr, Var("X"), C(Int(1))), Int(5)},
		{B(OpEq, Var("X"), C(Int(10))), Bool(true)},
		{B(OpNe, Var("X"), Var("Y")), Bool(true)},
		{B(OpLt, Var("Y"), Var("X")), Bool(true)},
		{B(OpLe, Var("X"), Var("X")), Bool(true)},
		{B(OpGt, Var("X"), Var("Y")), Bool(true)},
		{B(OpGe, Var("Y"), Var("X")), Bool(false)},
	}
	for _, tc := range tests {
		got, err := evalIn(tc.expr, env)
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestModIsNonNegative(t *testing.T) {
	got, err := evalIn(B(OpMod, C(Int(-7)), C(Int(3))), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != Int(2) {
		t.Errorf("-7 %% 3 = %v, want 2 (mathematical mod)", got)
	}
}

func TestDivByZero(t *testing.T) {
	if _, err := evalIn(B(OpDiv, C(Int(1)), C(Int(0))), nil); err == nil {
		t.Error("division by zero must error")
	}
	if _, err := evalIn(B(OpMod, C(Int(1)), C(Int(0))), nil); err == nil {
		t.Error("modulo by zero must error")
	}
}

func TestConcat(t *testing.T) {
	got, err := evalIn(B(OpConcat, C(Str("foo")), C(Str("bar"))), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != Str("foobar") {
		t.Errorf("concat = %v", got)
	}
	if _, err := evalIn(B(OpConcat, C(Int(1)), C(Str("x"))), nil); err == nil {
		t.Error("concat of int must error")
	}
}

func TestUnboundVariable(t *testing.T) {
	if _, err := evalIn(Var("Z"), nil); err == nil {
		t.Error("unbound variable must error")
	}
}

func TestIPMaskArithmetic(t *testing.T) {
	ip := MustParseIP("1.2.3.4")
	got, err := evalIn(B(OpAnd, C(ip), C(Int(0xFF))), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != IP(4) {
		t.Errorf("ip & 0xFF = %v (%T), want IP(4)", got, got)
	}
}

func TestCallBuiltins(t *testing.T) {
	env := mapEnv{
		"Hdr": MustParseIP("4.3.3.1"),
		"P23": MustParsePrefix("4.3.2.0/23"),
		"P24": MustParsePrefix("4.3.2.0/24"),
	}
	tests := []struct {
		expr string
		e    Expr
		want Value
	}{
		{"matches23", Call{Fn: "matches", Args: []Expr{Var("Hdr"), Var("P23")}}, Bool(true)},
		{"matches24", Call{Fn: "matches", Args: []Expr{Var("Hdr"), Var("P24")}}, Bool(false)},
		{"octet", Call{Fn: "octet", Args: []Expr{Var("Hdr"), C(Int(3))}}, Int(1)},
		{"mask", Call{Fn: "mask", Args: []Expr{Var("Hdr"), C(Int(16))}}, MustParseIP("4.3.0.0")},
		{"prefix", Call{Fn: "prefix", Args: []Expr{Var("Hdr"), C(Int(24))}}, MustParsePrefix("4.3.3.0/24")},
		{"covers", Call{Fn: "covers", Args: []Expr{Var("P23"), Var("P24")}}, Bool(true)},
		{"min2", Call{Fn: "min2", Args: []Expr{C(Int(3)), C(Int(5))}}, Int(3)},
		{"max2", Call{Fn: "max2", Args: []Expr{C(Int(3)), C(Int(5))}}, Int(5)},
	}
	for _, tc := range tests {
		got, err := evalIn(tc.e, env)
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestCallErrors(t *testing.T) {
	if _, err := evalIn(Call{Fn: "nosuch"}, nil); err == nil {
		t.Error("unknown function must error")
	}
	if _, err := evalIn(Call{Fn: "matches", Args: []Expr{C(Int(1))}}, nil); err == nil {
		t.Error("wrong arity must error")
	}
	if _, err := evalIn(Call{Fn: "matches", Args: []Expr{C(Int(1)), C(Int(2))}}, nil); err == nil {
		t.Error("wrong kinds must error")
	}
}

func TestHashDeterministic(t *testing.T) {
	a := Hash64(Str("hello"))
	b := Hash64(Str("hello"))
	if a != b {
		t.Error("hash must be deterministic")
	}
	if Hash64(Str("hello")) == Hash64(Str("world")) {
		t.Error("distinct strings should hash differently (with overwhelming probability)")
	}
	// Int and Str with same rendering must differ (hash is over the
	// canonical key, which is kind-tagged).
	if Hash64(Int(1)) == Hash64(Str("1")) {
		t.Error("hash must distinguish kinds")
	}
	// The value is FNV-1a over the canonical key: partitioner outputs, and
	// with them every recorded MapReduce execution, depend on it.
	for _, v := range []Value{Str("hello"), Str(""), Int(-7), MustParseIP("1.2.3.4"), MustParsePrefix("10.0.0.0/8"), ID(9), Bool(true)} {
		h := fnv.New64a()
		h.Write(v.appendKey(nil))
		if got, want := Hash64(v), h.Sum64(); got != want {
			t.Errorf("Hash64(%v) = %#x, FNV-1a of its key is %#x", v, got, want)
		}
	}
}

func TestHashmod(t *testing.T) {
	e := Call{Fn: "hashmod", Args: []Expr{C(Str("word")), C(Int(4))}}
	v, err := evalIn(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := v.(Int)
	if n < 0 || n >= 4 {
		t.Errorf("hashmod out of range: %v", n)
	}
	if _, err := evalIn(Call{Fn: "hashmod", Args: []Expr{C(Str("w")), C(Int(0))}}, nil); err == nil {
		t.Error("hashmod with n=0 must error")
	}
}

// TestSubstComposition: a composed taint formula — f(X) = X + 1 with
// X = 2*Y — is one nested expression, and evaluates as one.
func TestSubstComposition(t *testing.T) {
	g := B(OpAdd, B(OpMul, C(Int(2)), Var("Y")), C(Int(1)))
	got, err := evalIn(g, mapEnv{"Y": Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got != Int(11) {
		t.Errorf("composed formula = %v, want 11", got)
	}
}

// TestSubstLeavesUnmappedVars: a constant operand beside a variable reads
// the variable from the frame.
func TestSubstLeavesUnmappedVars(t *testing.T) {
	got, err := evalIn(B(OpAdd, C(Int(1)), Var("Y")), mapEnv{"Y": Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got != Int(3) {
		t.Errorf("got %v", got)
	}
}

func TestFreeVars(t *testing.T) {
	e := B(OpAdd, Var("B"), B(OpMul, Var("A"), Var("B")))
	got := FreeVars(e)
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("FreeVars = %v, want [A B]", got)
	}
	if len(FreeVars(C(Int(1)))) != 0 {
		t.Error("constants have no free vars")
	}
}

func TestEvalBool(t *testing.T) {
	holds := func(e Expr) (bool, error) {
		cl, f, _ := compileExpr(e, nil, "")
		return cl.holds(f)
	}
	ok, err := holds(B(OpLt, C(Int(1)), C(Int(2))))
	if err != nil || !ok {
		t.Errorf("1 < 2 should hold: %v %v", ok, err)
	}
	if _, err := holds(C(Int(1))); err == nil {
		t.Error("non-boolean constraint must error")
	}
}

// TestEnvClone: a binding is a frame, and a frame is its holder's own:
// Frame hands out a fresh unbound one per call, and Unify into one leaves
// every other untouched.
func TestEnvClone(t *testing.T) {
	p := MustParse(`
table t/2 base;
table h/1 event;
rule r h(X) :- t(X, Y).
`)
	cr := p.Compiled("r")
	a, b := cr.Frame(), cr.Frame()
	if !cr.Unify(0, a, Str("n"), NewTuple("t", Int(1), Int(2))) {
		t.Fatal("t(1, 2) must unify with t(X, Y)")
	}
	if a[cr.Slot("X")] != Int(1) || a[cr.Slot("Y")] != Int(2) {
		t.Errorf("unified frame = %v, want X=1 Y=2", a)
	}
	for slot, v := range b {
		if v != nil {
			t.Errorf("a second frame shares storage: slot %s = %v", cr.Var(slot), v)
		}
	}
	if cr.Slot("Z") != -1 {
		t.Error("a variable the rule does not mention has no slot")
	}
}

func TestExprString(t *testing.T) {
	e := B(OpAdd, Var("X"), B(OpMul, C(Int(2)), Var("Y")))
	if got := e.String(); got != "(X + (2 * Y))" {
		t.Errorf("String = %s", got)
	}
	c := Call{Fn: "octet", Args: []Expr{Var("A"), C(Int(0))}}
	if got := c.String(); got != "octet(A, 0)" {
		t.Errorf("Call String = %s", got)
	}
	s := C(Str("x")).String()
	if s != `"x"` {
		t.Errorf("string const should quote, got %s", s)
	}
}

// randomIntExpr builds a random expression over variable X using only
// invertible operators, for inversion property tests.
func randomIntExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 {
		if r.Intn(2) == 0 {
			return Var("X")
		}
		return C(Int(r.Int63n(20) + 1))
	}
	ops := []BinOp{OpAdd, OpSub, OpMul, OpXor}
	op := ops[r.Intn(len(ops))]
	// Keep X on exactly one side so the expression is invertible.
	known := C(Int(r.Int63n(20) + 1))
	unknown := randomIntExpr(r, depth-1)
	if r.Intn(2) == 0 {
		return B(op, unknown, known)
	}
	return B(op, known, unknown)
}

func TestInvertRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tried := 0
	for i := 0; i < 2000; i++ {
		e := randomIntExpr(r, 1+r.Intn(3))
		if !slices.Contains(FreeVars(e), "X") {
			continue
		}
		x := Int(r.Int63n(100) - 50)
		out, err := evalIn(e, mapEnv{"X": x})
		if err != nil {
			continue
		}
		cands, err := invertIn(e, out, "X", nil, true)
		if err != nil {
			t.Fatalf("invert %s = %v: %v", e, out, err)
		}
		found := false
		for _, c := range cands {
			if c == x {
				found = true
			}
			// Every candidate must forward-evaluate to out.
			v, err := evalIn(e, mapEnv{"X": c})
			if err != nil || v != out {
				t.Fatalf("spurious preimage %v for %s = %v", c, e, out)
			}
		}
		if !found {
			t.Fatalf("inversion of %s = %v missed true preimage %v (got %v)", e, out, x, cands)
		}
		tried++
	}
	if tried < 500 {
		t.Fatalf("too few property cases exercised: %d", tried)
	}
}

func TestInvertBasics(t *testing.T) {
	// q = x + 2  =>  x = q - 2 (the paper's §4.5 example).
	e := B(OpAdd, Var("X"), C(Int(2)))
	got, err := invertIn(e, Int(8), "X", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != Int(6) {
		t.Errorf("invert x+2=8 -> %v, want [6]", got)
	}

	// d = 2*c + 1 (the paper's §4.4 example).
	e2 := B(OpAdd, B(OpMul, C(Int(2)), Var("X")), C(Int(1)))
	got, err = invertIn(e2, Int(7), "X", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != Int(3) {
		t.Errorf("invert 2x+1=7 -> %v, want [3]", got)
	}

	// No integral preimage: 2x = 7.
	got, err = invertIn(B(OpMul, C(Int(2)), Var("X")), Int(7), "X", nil, false)
	if err != nil || len(got) != 0 {
		t.Errorf("2x=7 should have no preimage, got %v, %v", got, err)
	}
}

func TestInvertSubtractionSides(t *testing.T) {
	// x - 3 = 4 => x = 7
	got, _ := invertIn(B(OpSub, Var("X"), C(Int(3))), Int(4), "X", nil, false)
	if len(got) != 1 || got[0] != Int(7) {
		t.Errorf("x-3=4 -> %v", got)
	}
	// 10 - x = 4 => x = 6
	got, _ = invertIn(B(OpSub, C(Int(10)), Var("X")), Int(4), "X", nil, false)
	if len(got) != 1 || got[0] != Int(6) {
		t.Errorf("10-x=4 -> %v", got)
	}
}

func TestInvertConcat(t *testing.T) {
	got, err := invertIn(B(OpConcat, Var("X"), C(Str("-suffix"))), Str("word-suffix"), "X", nil, false)
	if err != nil || len(got) != 1 || got[0] != Str("word") {
		t.Errorf("concat inversion -> %v, %v", got, err)
	}
	got, err = invertIn(B(OpConcat, C(Str("pre-")), Var("X")), Str("pre-word"), "X", nil, false)
	if err != nil || len(got) != 1 || got[0] != Str("word") {
		t.Errorf("concat inversion -> %v, %v", got, err)
	}
	// Mismatched suffix: no preimage.
	got, err = invertIn(B(OpConcat, Var("X"), C(Str("abc"))), Str("xyz"), "X", nil, false)
	if err != nil || len(got) != 0 {
		t.Errorf("want no preimage, got %v, %v", got, err)
	}
}

func TestInvertNonInvertible(t *testing.T) {
	// hash(x) = out is not invertible.
	_, err := invertIn(Call{Fn: "hash", Args: []Expr{Var("X")}}, ID(1), "X", nil, false)
	if err != ErrNonInvertible {
		t.Errorf("hash inversion error = %v, want ErrNonInvertible", err)
	}
	// x % 5 is not invertible.
	_, err = invertIn(B(OpMod, Var("X"), C(Int(5))), Int(2), "X", nil, false)
	if err != ErrNonInvertible {
		t.Errorf("mod inversion error = %v, want ErrNonInvertible", err)
	}
	// x appearing on both sides: give up.
	_, err = invertIn(B(OpAdd, Var("X"), Var("X")), Int(2), "X", nil, false)
	if err != ErrNonInvertible {
		t.Errorf("x+x inversion error = %v, want ErrNonInvertible", err)
	}
}

func TestInvertPrefixBuiltin(t *testing.T) {
	// prefix(A, 24) = 4.3.3.0/24 => A = 4.3.3.0 (canonical preimage).
	e := Call{Fn: "prefix", Args: []Expr{Var("A"), C(Int(24))}}
	got, err := invertIn(e, MustParsePrefix("4.3.3.0/24"), "A", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != MustParseIP("4.3.3.0") {
		t.Errorf("prefix inversion -> %v", got)
	}
	// Inverting the bits argument.
	e2 := Call{Fn: "prefix", Args: []Expr{C(MustParseIP("4.3.3.0")), Var("N")}}
	got, err = invertIn(e2, MustParsePrefix("4.3.3.0/24"), "N", nil, false)
	if err != nil || len(got) != 1 || got[0] != Int(24) {
		t.Errorf("prefix bits inversion -> %v, %v", got, err)
	}
}

func TestInvertContradiction(t *testing.T) {
	// Constant 5 against target 6: no preimage, not an error.
	got, err := invertIn(C(Int(5)), Int(6), "X", nil, false)
	if err != nil || got != nil {
		t.Errorf("constant mismatch: %v, %v", got, err)
	}
	// Known variable mismatch.
	got, err = invertIn(Var("Y"), Int(6), "X", mapEnv{"Y": Int(5)}, false)
	if err != nil || got != nil {
		t.Errorf("known-var mismatch: %v, %v", got, err)
	}
}

func TestInvertDivisionForwardChecked(t *testing.T) {
	// x / 3 = 4: canonical preimage 12; the forward check keeps it.
	got, err := invertIn(B(OpDiv, Var("X"), C(Int(3))), Int(4), "X", nil, true)
	if err != nil || len(got) != 1 || got[0] != Int(12) {
		t.Errorf("x/3=4 -> %v, %v", got, err)
	}
}

func TestBinOpString(t *testing.T) {
	if OpAdd.String() != "+" || OpConcat.String() != "++" {
		t.Error("operator rendering broken")
	}
	if !strings.HasPrefix(BinOp(200).String(), "op(") {
		t.Error("unknown op rendering broken")
	}
}
