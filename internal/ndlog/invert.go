package ndlog

import "fmt"

// Invert solves a clause for one unknown slot: the values v such that the
// clause evaluates to out with slot bound to v and every other variable as
// f binds it. This is the computation inversion of §4.5: "if a tuple
// abc(5,8) has been derived using a rule abc(p,q) :- foo(p), bar(x),
// q=x+2, DiffProv must invert q=x+2 to obtain x=q-2". Several preimages may
// be returned (the paper: "When there are several preimages ... DiffProv can
// try all of them"); ErrNonInvertible is returned for computations that
// cannot be inverted (hashes, lossy ops). The preimages are appended to dst,
// which is returned extended (and as it was on an error), so a caller that
// passes its own buffer back in allocates nothing per inversion. Every
// candidate is forward-checked, which drops the spurious preimages a lossy
// inverse step introduces (integer division): the check binds the slot in f
// itself and unbinds it before returning, so f must be the caller's alone
// during the call.
func (cr *CompiledRule) Invert(c Clause, f []Value, out Value, slot int, dst []Value) ([]Value, error) {
	return invertChecked(cr.clause(c).e, f, out, slot, dst)
}

// invertChecked is Invert over a compiled expression.
func invertChecked(e slotExpr, f []Value, out Value, slot int, dst []Value) ([]Value, error) {
	start := len(dst)
	cands, err := invert(e, f, out, slot, dst)
	if err != nil {
		return dst, err
	}
	good := cands[:start]
	for _, v := range cands[start:] {
		f[slot] = v
		if got, err := e.eval(f); err == nil && got == out {
			good = append(good, v)
		}
	}
	f[slot] = nil
	return good, nil
}

// invert is Invert without the forward check: it appends the preimages to
// dst and, on an error, returns dst as it was.
func invert(e slotExpr, f []Value, out Value, unknown int, dst []Value) ([]Value, error) {
	switch x := e.(type) {
	case slotVar:
		if x.slot == unknown {
			return append(dst, out), nil
		}
		v := f[x.slot]
		if v == nil {
			return dst, fmt.Errorf("ndlog: invert: variable %s unbound", x.name)
		}
		if v == out {
			return dst, errNoConstraint // consistent but does not determine unknown
		}
		return dst, nil // contradiction: no preimage
	case slotConst:
		if x.v == out {
			return dst, errNoConstraint
		}
		return dst, nil
	case slotBin:
		return invertBin(x, f, out, unknown, dst)
	case slotCall:
		return invertCall(x, f, out, unknown, dst)
	}
	return dst, ErrNonInvertible
}

// errNoConstraint signals that the (sub)expression does not mention the
// unknown; it is consistent with the target but contributes no binding.
var errNoConstraint = fmt.Errorf("ndlog: expression does not constrain the unknown")

// containsSlot reports whether the expression mentions the slot.
func containsSlot(e slotExpr, slot int) bool {
	switch x := e.(type) {
	case slotVar:
		return x.slot == slot
	case slotBin:
		return containsSlot(x.l, slot) || containsSlot(x.r, slot)
	case slotCall:
		for _, a := range x.args {
			if containsSlot(a, slot) {
				return true
			}
		}
	}
	return false
}

func invertBin(b slotBin, f []Value, out Value, unknown int, dst []Value) ([]Value, error) {
	inL := containsSlot(b.l, unknown)
	inR := containsSlot(b.r, unknown)
	if inL && inR {
		return dst, ErrNonInvertible // unknown on both sides: give up
	}
	if !inL && !inR {
		v, err := b.eval(f)
		if err != nil {
			return dst, err
		}
		if v == out {
			return dst, errNoConstraint
		}
		return dst, nil
	}
	// Evaluate the known side.
	knownSide := b.l
	unknownSide := b.r
	if inL {
		knownSide, unknownSide = b.r, b.l
	}
	known, err := knownSide.eval(f)
	if err != nil {
		return dst, err
	}
	sub, ok, err := invertBinStep(b.op, out, known, inL)
	if err != nil || !ok {
		return dst, err
	}
	return invert(unknownSide, f, sub, unknown, dst)
}

// invertEach inverts the unknown side of an operation for each of the
// values it may take, appending the preimages to dst without duplicates.
func invertEach(e slotExpr, f []Value, outs []Value, unknown int, dst []Value) ([]Value, error) {
	start := len(dst)
	all := dst
	sawNoConstraint := false
	for _, s := range outs {
		next, err := invert(e, f, s, unknown, all)
		if err == errNoConstraint {
			sawNoConstraint = true
			continue
		}
		if err != nil {
			return dst, err
		}
		all = next
	}
	if len(all) == start && sawNoConstraint {
		return dst, errNoConstraint
	}
	return all[:start+len(dedupValues(all[start:]))], nil
}

// invertBinStep solves op(x, known) = out (unknownLeft) or
// op(known, x) = out (!unknownLeft) for x: the value of the unknown
// subexpression, and false when there is none.
func invertBinStep(op BinOp, out, known Value, unknownLeft bool) (Value, bool, error) {
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
			return nil, false, ErrNonInvertible
		}
		return reint(oi - ki), true, nil
	case OpSub:
		if !oOK || !kOK {
			return nil, false, ErrNonInvertible
		}
		if unknownLeft { // x - known = out
			return reint(oi + ki), true, nil
		}
		// known - x = out
		return reint(ki - oi), true, nil
	case OpMul:
		if !oOK || !kOK {
			return nil, false, ErrNonInvertible
		}
		if ki == 0 {
			if oi == 0 {
				return nil, false, ErrNonInvertible // any value works; underdetermined
			}
			return nil, false, nil
		}
		if oi%ki != 0 {
			return nil, false, nil // no integral preimage
		}
		return reint(oi / ki), true, nil
	case OpXor:
		if !oOK || !kOK {
			return nil, false, ErrNonInvertible
		}
		return reint(oi ^ ki), true, nil
	case OpDiv:
		if !oOK || !kOK {
			return nil, false, ErrNonInvertible
		}
		if unknownLeft {
			// x / known = out: x in [out*known, out*known + known-1];
			// return the canonical preimage out*known. (Lossy division:
			// single representative preimage; forward-checked by caller.)
			return reint(oi * ki), true, nil
		}
		return nil, false, ErrNonInvertible
	case OpConcat:
		os, oOK := out.(Str)
		ks, kOK := known.(Str)
		if !oOK || !kOK {
			return nil, false, ErrNonInvertible
		}
		if unknownLeft { // x ++ known = out
			if len(os) < len(ks) || string(os[len(os)-len(ks):]) != string(ks) {
				return nil, false, nil
			}
			return os[:len(os)-len(ks)], true, nil
		}
		if len(os) < len(ks) || string(os[:len(ks)]) != string(ks) {
			return nil, false, nil
		}
		return os[len(ks):], true, nil
	default: // OpMod, OpAnd, OpOr, OpShl, OpShr and the comparisons
		return nil, false, ErrNonInvertible
	}
}

func invertCall(c slotCall, f []Value, out Value, unknown int, dst []Value) ([]Value, error) {
	fn, ok := builtins[c.fn]
	if !ok {
		return dst, fmt.Errorf("ndlog: unknown function %s", c.fn)
	}
	unknownArg := -1
	for i, a := range c.args {
		if containsSlot(a, unknown) {
			if unknownArg >= 0 {
				return dst, ErrNonInvertible
			}
			unknownArg = i
		}
	}
	if unknownArg < 0 {
		v, err := c.eval(f)
		if err != nil {
			return dst, err
		}
		if v == out {
			return dst, errNoConstraint
		}
		return dst, nil
	}
	if fn.invert == nil {
		return dst, ErrNonInvertible
	}
	args := make([]Value, len(c.args))
	for i, a := range c.args {
		if i == unknownArg {
			continue
		}
		v, err := a.eval(f)
		if err != nil {
			return dst, err
		}
		args[i] = v
	}
	subOuts, err := fn.invert(out, args, unknownArg)
	if err != nil {
		return dst, err
	}
	return invertEach(c.args[unknownArg], f, subOuts, unknown, dst)
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
