package ndlog

import "fmt"

// Invert solves an expression for a single unknown variable. Given an
// expression e, a target output value out, and an environment binding every
// free variable of e except unknown, it returns the candidate values v such
// that evaluating e with unknown=v yields out. This implements the
// computation inversion of §4.5: "if a tuple abc(5,8) has been derived
// using a rule abc(p,q) :- foo(p), bar(x), q=x+2, DiffProv must invert
// q=x+2 to obtain x=q-2".
//
// Several preimages may be returned (the paper: "When there are several
// preimages ... DiffProv can try all of them"). ErrNonInvertible is
// returned for computations that cannot be inverted (hashes, lossy ops).
func Invert(e Expr, out Value, unknown string, env Env) ([]Value, error) {
	switch x := e.(type) {
	case Var:
		if string(x) == unknown {
			return []Value{out}, nil
		}
		v, ok := env[string(x)]
		if !ok {
			return nil, fmt.Errorf("ndlog: invert: variable %s unbound", string(x))
		}
		if v == out {
			return nil, errNoConstraint // consistent but does not determine unknown
		}
		return nil, nil // contradiction: no preimage
	case Const:
		if x.V == out {
			return nil, errNoConstraint
		}
		return nil, nil
	case Bin:
		return invertBin(x, out, unknown, env)
	case Call:
		return invertCall(x, out, unknown, env)
	default:
		return nil, ErrNonInvertible
	}
}

// errNoConstraint signals that the (sub)expression does not mention the
// unknown; it is consistent with the target but contributes no binding.
var errNoConstraint = fmt.Errorf("ndlog: expression does not constrain the unknown")

// containsVar reports whether the expression mentions the variable. The
// inversion asks this of every subexpression it descends into, so the
// package's own expression types are walked in place instead of listing
// their variables.
func containsVar(e Expr, name string) bool {
	switch x := e.(type) {
	case Var:
		return string(x) == name
	case Const:
		return false
	case Bin:
		return containsVar(x.L, name) || containsVar(x.R, name)
	case Call:
		for _, a := range x.Args {
			if containsVar(a, name) {
				return true
			}
		}
		return false
	}
	for _, v := range e.Vars(nil) {
		if v == name {
			return true
		}
	}
	return false
}

func invertBin(b Bin, out Value, unknown string, env Env) ([]Value, error) {
	inL := containsVar(b.L, unknown)
	inR := containsVar(b.R, unknown)
	if inL && inR {
		return nil, ErrNonInvertible // unknown on both sides: give up
	}
	if !inL && !inR {
		v, err := b.Eval(env)
		if err != nil {
			return nil, err
		}
		if v == out {
			return nil, errNoConstraint
		}
		return nil, nil
	}
	// Evaluate the known side.
	knownSide := b.L
	unknownSide := b.R
	if inL {
		knownSide, unknownSide = b.R, b.L
	}
	known, err := knownSide.Eval(env)
	if err != nil {
		return nil, err
	}
	sub, err := invertBinStep(b.Op, out, known, inL)
	if err != nil {
		return nil, err
	}
	var all []Value
	sawNoConstraint := false
	for _, s := range sub {
		vs, err := Invert(unknownSide, s, unknown, env)
		if err == errNoConstraint {
			sawNoConstraint = true
			continue
		}
		if err != nil {
			return nil, err
		}
		all = append(all, vs...)
	}
	if len(all) == 0 && sawNoConstraint {
		return nil, errNoConstraint
	}
	return dedupValues(all), nil
}

// invertBinStep solves op(x, known) = out (unknownLeft) or
// op(known, x) = out (!unknownLeft) for x, returning candidate values of
// the unknown subexpression.
func invertBinStep(op BinOp, out, known Value, unknownLeft bool) ([]Value, error) {
	oi, oOK := asInt(out)
	ki, kOK := asInt(known)
	reint := func(n int64) Value {
		if out.Kind() == KindIP || known.Kind() == KindIP {
			return IP(uint32(n))
		}
		return Int(n)
	}
	switch op {
	case OpAdd:
		if !oOK || !kOK {
			return nil, ErrNonInvertible
		}
		return []Value{reint(oi - ki)}, nil
	case OpSub:
		if !oOK || !kOK {
			return nil, ErrNonInvertible
		}
		if unknownLeft { // x - known = out
			return []Value{reint(oi + ki)}, nil
		}
		// known - x = out
		return []Value{reint(ki - oi)}, nil
	case OpMul:
		if !oOK || !kOK {
			return nil, ErrNonInvertible
		}
		if ki == 0 {
			if oi == 0 {
				return nil, ErrNonInvertible // any value works; underdetermined
			}
			return nil, nil
		}
		if oi%ki != 0 {
			return nil, nil // no integral preimage
		}
		return []Value{reint(oi / ki)}, nil
	case OpXor:
		if !oOK || !kOK {
			return nil, ErrNonInvertible
		}
		return []Value{reint(oi ^ ki)}, nil
	case OpDiv:
		if !oOK || !kOK {
			return nil, ErrNonInvertible
		}
		if unknownLeft {
			// x / known = out: x in [out*known, out*known + known-1];
			// return the canonical preimage out*known. (Lossy division:
			// single representative preimage; forward-checked by caller.)
			return []Value{reint(oi * ki)}, nil
		}
		return nil, ErrNonInvertible
	case OpConcat:
		os, oOK := out.(Str)
		ks, kOK := known.(Str)
		if !oOK || !kOK {
			return nil, ErrNonInvertible
		}
		if unknownLeft { // x ++ known = out
			if len(os) < len(ks) || string(os[len(os)-len(ks):]) != string(ks) {
				return nil, nil
			}
			return []Value{os[:len(os)-len(ks)]}, nil
		}
		if len(os) < len(ks) || string(os[:len(ks)]) != string(ks) {
			return nil, nil
		}
		return []Value{os[len(ks):]}, nil
	case OpMod, OpAnd, OpOr, OpShl, OpShr:
		return nil, ErrNonInvertible
	default:
		return nil, ErrNonInvertible
	}
}

func invertCall(c Call, out Value, unknown string, env Env) ([]Value, error) {
	fn, ok := builtins[c.Fn]
	if !ok {
		return nil, fmt.Errorf("ndlog: unknown function %s", c.Fn)
	}
	unknownArg := -1
	for i, a := range c.Args {
		if containsVar(a, unknown) {
			if unknownArg >= 0 {
				return nil, ErrNonInvertible
			}
			unknownArg = i
		}
	}
	if unknownArg < 0 {
		v, err := c.Eval(env)
		if err != nil {
			return nil, err
		}
		if v == out {
			return nil, errNoConstraint
		}
		return nil, nil
	}
	if fn.invert == nil {
		return nil, ErrNonInvertible
	}
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		if i == unknownArg {
			continue
		}
		v, err := a.Eval(env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	subOuts, err := fn.invert(out, args, unknownArg)
	if err != nil {
		return nil, err
	}
	var all []Value
	sawNoConstraint := false
	for _, s := range subOuts {
		vs, err := Invert(c.Args[unknownArg], s, unknown, env)
		if err == errNoConstraint {
			sawNoConstraint = true
			continue
		}
		if err != nil {
			return nil, err
		}
		all = append(all, vs...)
	}
	if len(all) == 0 && sawNoConstraint {
		return nil, errNoConstraint
	}
	return dedupValues(all), nil
}

func dedupValues(vs []Value) []Value {
	if len(vs) < 2 {
		return vs
	}
	seen := make(map[Value]bool, len(vs))
	out := vs[:0]
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// InvertChecked inverts and then forward-checks every candidate, dropping
// spurious preimages introduced by lossy inverse steps (e.g. integer
// division). The forward check evaluates e with unknown bound in env itself
// — every inversion the solver attempts used to pay for a copy of the
// environment — and unbinds it before returning, so env must not be in use
// by another goroutine during the call.
func InvertChecked(e Expr, out Value, unknown string, env Env) ([]Value, error) {
	cands, err := Invert(e, out, unknown, env)
	if err != nil {
		return nil, err
	}
	good := cands[:0]
	for _, c := range cands {
		env[unknown] = c
		v, err := e.Eval(env)
		if err == nil && v == out {
			good = append(good, c)
		}
	}
	delete(env, unknown)
	return good, nil
}
