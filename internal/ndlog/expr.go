package ndlog

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is an expression over tuple fields: a variable, a constant, a binary
// operation, or a call to a registered builtin function. Expressions appear
// in rule heads, constraints, assignments and inverses. The set is closed:
// an expression is evaluated only once its rule is compiled to slot frames
// (compile.go), and each of the four types compiles itself.
type Expr interface {
	// Vars appends the free variables of the expression to dst.
	Vars(dst []string) []string
	// String renders NDlog source syntax.
	String() string
	// compile rewrites the expression over the compiler's slots.
	compile(c *compiler) slotExpr
}

// Var is a variable reference.
type Var string

// Vars implements Expr.
func (v Var) Vars(dst []string) []string { return append(dst, string(v)) }

func (v Var) String() string { return string(v) }

// Const is a literal constant.
type Const struct{ V Value }

// C wraps a Value as a constant expression.
func C(v Value) Const { return Const{V: v} }

// Vars implements Expr.
func (c Const) Vars(dst []string) []string { return dst }

func (c Const) String() string {
	if s, ok := c.V.(Str); ok {
		return fmt.Sprintf("%q", string(s))
	}
	return c.V.String()
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators. Arithmetic operators apply to Int (and, where sensible,
// IP); Concat applies to Str; comparison operators yield Bool.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd // bitwise and
	OpOr  // bitwise or
	OpXor
	OpShl
	OpShr
	OpConcat
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpConcat: "++", OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=",
}

func (op BinOp) String() string {
	if s, ok := binOpNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Bin is a binary operation.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// B builds a binary expression.
func B(op BinOp, l, r Expr) Bin { return Bin{Op: op, L: l, R: r} }

func applyBin(op BinOp, l, r Value) (Value, error) {
	switch op {
	case OpEq:
		return Bool(l == r), nil
	case OpNe:
		return Bool(l != r), nil
	case OpLt:
		return Bool(Less(l, r)), nil
	case OpLe:
		return Bool(!Less(r, l)), nil
	case OpGt:
		return Bool(Less(r, l)), nil
	case OpGe:
		return Bool(!Less(l, r)), nil
	case OpConcat:
		ls, lok := l.(Str)
		rs, rok := r.(Str)
		if !lok || !rok {
			return nil, fmt.Errorf("ndlog: ++ requires strings, got %s, %s", l.Kind(), r.Kind())
		}
		return ls + rs, nil
	}
	li, lok := asInt(l)
	ri, rok := asInt(r)
	if !lok || !rok {
		return nil, fmt.Errorf("ndlog: %s requires numeric operands, got %s, %s", op, l.Kind(), r.Kind())
	}
	var out int64
	switch op {
	case OpAdd:
		out = li + ri
	case OpSub:
		out = li - ri
	case OpMul:
		out = li * ri
	case OpDiv:
		if ri == 0 {
			return nil, fmt.Errorf("ndlog: division by zero")
		}
		out = li / ri
	case OpMod:
		if ri == 0 {
			return nil, fmt.Errorf("ndlog: modulo by zero")
		}
		out = li % ri
		if out < 0 {
			out += ri
		}
	case OpAnd:
		out = li & ri
	case OpOr:
		out = li | ri
	case OpXor:
		out = li ^ ri
	case OpShl:
		out = li << uint(ri&63)
	case OpShr:
		out = int64(uint64(li) >> uint(ri&63))
	default:
		return nil, fmt.Errorf("ndlog: unknown operator %s", op)
	}
	// Preserve IP-ness through masking-style arithmetic when the left
	// operand is an address.
	if l.Kind() == KindIP && (op == OpAnd || op == OpOr || op == OpXor) {
		return IP(uint32(out)), nil
	}
	return Int(out), nil
}

func asInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case Int:
		return int64(x), true
	case IP:
		return int64(x), true
	case ID:
		return int64(x), true
	case Bool:
		if x {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// Vars implements Expr.
func (b Bin) Vars(dst []string) []string { return b.R.Vars(b.L.Vars(dst)) }

func (b Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Call invokes a registered builtin function.
type Call struct {
	Fn   string
	Args []Expr
}

// lookupBuiltin finds the builtin a call names and checks the call's
// argument count against it.
func lookupBuiltin(name string, nargs int) (*builtin, error) {
	fn, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("ndlog: unknown function %s", name)
	}
	if fn.arity >= 0 && nargs != fn.arity {
		return nil, fmt.Errorf("ndlog: %s expects %d args, got %d", name, fn.arity, nargs)
	}
	return fn, nil
}

// apply finishes a call whose arguments were evaluated into the pooled
// buffer ab (err is the first argument's failure, if any): it applies the
// builtin and hands the buffer back. Constraints run once per joined row,
// which is why the argument slice is pooled (builtins must not retain it,
// see RegisterBuiltin).
func (fn *builtin) apply(ab *argBuf, args []Value, err error) (Value, error) {
	var res Value
	if err == nil {
		res, err = fn.eval(args)
	}
	clear(args)
	ab.v = args
	argBufPool.Put(ab)
	return res, err
}

// Vars implements Expr.
func (c Call) Vars(dst []string) []string {
	for _, a := range c.Args {
		dst = a.Vars(dst)
	}
	return dst
}

func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Fn, strings.Join(parts, ", "))
}

// FreeVars returns the sorted, deduplicated free variables of an expression.
func FreeVars(e Expr) []string {
	vs := e.Vars(nil)
	sort.Strings(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// constraintResult reads the value constraint e evaluated to as a boolean.
func constraintResult(e Expr, v Value) (bool, error) {
	b, ok := v.(Bool)
	if !ok {
		return false, fmt.Errorf("ndlog: constraint %s is not boolean (got %s)", e, v.Kind())
	}
	return bool(b), nil
}
