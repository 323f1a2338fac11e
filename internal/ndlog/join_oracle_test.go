package ndlog

import (
	"fmt"
	"sort"
)

// The reference join: the clone-per-row nested-loop pipeline the engine
// evaluated rules with before the backtracking core (join.go) replaced it.
// It returns bindings atom by atom as slices, cloning the environment and
// the body for every row it extends, and applies assignments, constraints
// and argmax selection only after the whole enumeration. Kept as the
// oracle TestJoinDifferential holds the core against: same bindings, same
// order, same index counters.
//
// The one intended difference: the oracle reports an assignment/constraint
// error only after enumerating every body match, the core at the leaf where
// it occurs — so when a firing holds both such an error and a later join
// error (unknown table), the two report different ones. Both abort the
// firing with an error and no bindings.
//
// The oracle also keeps the map environment the engine bound variables in
// before rules were compiled to slot frames (compile.go): it unifies,
// resolves locations and evaluates through the map reference below and
// checks rows with its own map-based quickMatch, so the differential also
// holds the compiled atoms to an independent reading of rule semantics.

// mapEnv binds variable names to values: the map reference's binding.
type mapEnv map[string]Value

func (env mapEnv) clone() mapEnv {
	c := make(mapEnv, len(env))
	for k, v := range env {
		c[k] = v
	}
	return c
}

// evalEnv evaluates an expression under a map environment.
func evalEnv(e Expr, env mapEnv) (Value, error) {
	switch x := e.(type) {
	case Var:
		v, ok := env[string(x)]
		if !ok {
			return nil, fmt.Errorf("ndlog: unbound variable %s", string(x))
		}
		return v, nil
	case Const:
		return x.V, nil
	case Bin:
		l, err := evalEnv(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := evalEnv(x.R, env)
		if err != nil {
			return nil, err
		}
		return applyBin(x.Op, l, r)
	case Call:
		fn, err := lookupBuiltin(x.Fn, len(x.Args))
		if err != nil {
			return nil, err
		}
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			if args[i], err = evalEnv(a, env); err != nil {
				return nil, err
			}
		}
		return fn.eval(args)
	}
	return nil, fmt.Errorf("ndlog: unknown expression %T", e)
}

// unifyEnv unifies a body atom against a tuple on a node, extending env in
// place; on a mismatch env may be left partially extended.
func unifyEnv(atom Atom, nodeName string, t Tuple, env mapEnv) bool {
	if atom.Table != t.Table || len(atom.Args) != len(t.Args) {
		return false
	}
	if atom.Loc != nil {
		switch l := atom.Loc.(type) {
		case Var:
			if v, ok := env[string(l)]; ok {
				if v != Str(nodeName) {
					return false
				}
			} else {
				env[string(l)] = Str(nodeName)
			}
		case Const:
			if l.V != Str(nodeName) {
				return false
			}
		default:
			v, err := evalEnv(atom.Loc, env)
			if err != nil || v != Str(nodeName) {
				return false
			}
		}
	}
	for i, arg := range atom.Args {
		switch a := arg.(type) {
		case Var:
			if v, ok := env[string(a)]; ok {
				if v != t.Args[i] {
					return false
				}
			} else {
				env[string(a)] = t.Args[i]
			}
		case Const:
			if a.V != t.Args[i] {
				return false
			}
		default:
			v, err := evalEnv(arg, env)
			if err != nil || v != t.Args[i] {
				return false
			}
		}
	}
	return true
}

// resolveEnv resolves a location term under a map environment: the node
// name and whether it is determined.
func resolveEnv(loc Expr, evalNode string, env mapEnv) (string, bool, error) {
	switch l := loc.(type) {
	case nil:
		return evalNode, true, nil
	case Const:
		s, ok := l.V.(Str)
		if !ok {
			return "", false, fmt.Errorf("location constant %s is not a node name", l.V)
		}
		return string(s), true, nil
	case Var:
		v, ok := env[string(l)]
		if !ok {
			return "", false, nil
		}
		s, ok := v.(Str)
		if !ok {
			return "", false, fmt.Errorf("location variable %s bound to non-node %s", string(l), v)
		}
		return string(s), true, nil
	}
	v, err := evalEnv(loc, env)
	if err != nil {
		return "", false, err
	}
	s, ok := v.(Str)
	if !ok {
		return "", false, fmt.Errorf("location expression %s is not a node name", loc)
	}
	return string(s), true, nil
}

// bindingKeyEnv is the canonical binding key of a map environment:
// name=value; in name order.
func bindingKeyEnv(env mapEnv) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = append(out, k...)
		out = append(out, '=')
		out = env[k].appendKey(out)
		out = append(out, ';')
	}
	return string(out)
}

// oracleBinding is a binding as the reference join builds it.
type oracleBinding struct {
	env  mapEnv
	body []At
}

// envQuickMatch is quickMatch over a map environment.
func envQuickMatch(atom Atom, env mapEnv, t Tuple) bool {
	if len(atom.Args) != len(t.Args) {
		return false
	}
	for i, arg := range atom.Args {
		switch a := arg.(type) {
		case Const:
			if a.V != t.Args[i] {
				return false
			}
		case Var:
			if v, ok := env[string(a)]; ok && v != t.Args[i] {
				return false
			}
		}
	}
	return true
}

// envProbeHash is probeHash over a map environment.
func envProbeHash(atom Atom, spec *indexSpec, env mapEnv) (uint64, bool) {
	h := hashSeed
	for _, c := range spec.cols {
		var v Value
		switch a := atom.Args[c].(type) {
		case Const:
			v = a.V
		case Var:
			v = env[string(a)]
		}
		if v == nil {
			return 0, false
		}
		h = v.hash(h)
	}
	return h & bucketMask, true
}

// oracleSat is the old fireRule/reevalArgMax prologue: unify the delta,
// join the rest, finish every binding, select the argmax winner.
func (e *Engine) oracleSat(r *Rule, deltaAtom int, nodeName string, delta Tuple, st Stamp) ([]oracleBinding, error) {
	env := mapEnv{}
	if !unifyEnv(r.Body[deltaAtom], nodeName, delta, env) {
		return nil, nil
	}
	seed := oracleBinding{env: env, body: make([]At, len(r.Body))}
	seed.body[deltaAtom] = At{Node: nodeName, Tuple: delta, Stamp: st}
	bindings, err := e.joinRest(r, deltaAtom, nodeName, seed, 0, st)
	if err != nil {
		return nil, err
	}
	var sat []oracleBinding
	for _, b := range bindings {
		ok, err := e.finishBinding(r, &b)
		if err != nil {
			return nil, fmt.Errorf("ndlog: rule %s: %v", r.Name, err)
		}
		if ok {
			sat = append(sat, b)
		}
	}
	if r.ArgMax != "" && len(sat) > 0 {
		best := 0
		for i := 1; i < len(sat); i++ {
			bi := sat[i].env[r.ArgMax]
			bb := sat[best].env[r.ArgMax]
			if Less(bb, bi) || (!Less(bi, bb) && bindingKeyEnv(sat[i].env) < bindingKeyEnv(sat[best].env)) {
				best = i
			}
		}
		sat = sat[best : best+1]
	}
	return sat, nil
}

// joinRest extends the binding over the remaining body atoms (hash join
// in atom order, skipping the delta atom; atoms with no bound columns
// fall back to a nested-loop scan). On error it returns (nil, err) —
// never partially accumulated bindings — and leaves the caller's binding
// untouched.
func (e *Engine) joinRest(r *Rule, deltaAtom int, evalNode string, b oracleBinding, next int, st Stamp) ([]oracleBinding, error) {
	if next == len(r.Body) {
		return []oracleBinding{b}, nil
	}
	if next == deltaAtom {
		return e.joinRest(r, deltaAtom, evalNode, b, next+1, st)
	}
	if pin, _ := e.pinned(next); pin != nil {
		return e.joinPinned(r, deltaAtom, evalNode, b, next, st)
	}
	atom := r.Body[next]
	decl := e.prog.Decl(atom.Table)
	if decl == nil {
		return nil, fmt.Errorf("ndlog: rule %s: unknown table %s", r.Name, atom.Table)
	}
	if decl.Event {
		return nil, nil
	}
	locNode, locKnown, err := resolveEnv(atom.Loc, evalNode, b.env)
	if err != nil {
		return nil, fmt.Errorf("ndlog: rule %s: %v", r.Name, err)
	}
	if locKnown {
		return e.joinAtom(r, deltaAtom, evalNode, b, next, st, locNode)
	}
	// Unbound location variable: try every node deterministically. The
	// location is bound in a per-node clone of the environment, so no
	// binding can leak into the caller's environment or into sibling
	// bindings — on any exit path, including errors.
	v := atom.Loc.(Var)
	var out []oracleBinding
	for _, n := range e.nodeOrder {
		bn := oracleBinding{env: b.env.clone(), body: b.body}
		bn.env[string(v)] = Str(n.name)
		sub, err := e.joinAtom(r, deltaAtom, evalNode, bn, next, st, n.name)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// joinAtom matches body atom next against one node's table, extending the
// binding per matching row and recursing over the remaining atoms.
func (e *Engine) joinAtom(r *Rule, deltaAtom int, evalNode string, b oracleBinding, next int, st Stamp, nodeName string) ([]oracleBinding, error) {
	atom := r.Body[next]
	tb := e.table(nodeName, atom.Table)
	if tb == nil {
		return nil, nil
	}
	rows := append(tb.order[:len(tb.order):len(tb.order)], tb.tail...)
	if spec := e.plans.plan(e.compiled.rules[r.Name], deltaAtom, next); spec != nil {
		if h, ok := envProbeHash(atom, spec, b.env); ok && spec.pos < len(tb.indexes) {
			rows = nil
			for _, pos := range tb.indexes[spec.pos].buckets.Get(h) {
				rows = append(rows, tb.row(int(pos)))
			}
			e.stats.IndexProbes++
		} else {
			e.stats.IndexFallbacks++
		}
	} else {
		e.stats.IndexScans++
	}
	var out []oracleBinding
	for _, rw := range rows {
		if rw.dead || st.Before(rw.appearedAt) {
			continue
		}
		if !envQuickMatch(atom, b.env, rw.tuple) {
			continue
		}
		env2 := b.env.clone()
		if !unifyEnv(atom, nodeName, rw.tuple, env2) {
			continue
		}
		b2 := oracleBinding{env: env2, body: make([]At, len(b.body))}
		copy(b2.body, b.body)
		b2.body[next] = At{Node: nodeName, Tuple: rw.tuple, Stamp: rw.appearedAt}
		rest, err := e.joinRest(r, deltaAtom, evalNode, b2, next+1, st)
		if err != nil {
			return nil, err
		}
		out = append(out, rest...)
	}
	return out, nil
}

// joinPinned matches the pinned counterfactual row — and only it — at
// body atom next, extending the binding and recursing like joinAtom.
func (e *Engine) joinPinned(r *Rule, deltaAtom int, evalNode string, b oracleBinding, next int, st Stamp) ([]oracleBinding, error) {
	atom := r.Body[next]
	rw, nodeName := e.pinned(next)
	locNode, locKnown, err := resolveEnv(atom.Loc, evalNode, b.env)
	if err != nil {
		return nil, fmt.Errorf("ndlog: rule %s: %v", r.Name, err)
	}
	if locKnown && locNode != nodeName {
		return nil, nil
	}
	if rw.dead || st.Before(rw.appearedAt) {
		return nil, nil
	}
	if !envQuickMatch(atom, b.env, rw.tuple) {
		return nil, nil
	}
	env2 := b.env.clone()
	if !unifyEnv(atom, nodeName, rw.tuple, env2) {
		return nil, nil
	}
	b2 := oracleBinding{env: env2, body: make([]At, len(b.body))}
	copy(b2.body, b.body)
	b2.body[next] = At{Node: nodeName, Tuple: rw.tuple, Stamp: rw.appearedAt}
	return e.joinRest(r, deltaAtom, evalNode, b2, next+1, st)
}

// finishBinding applies the rule's assignments and checks constraints.
func (e *Engine) finishBinding(r *Rule, b *oracleBinding) (bool, error) {
	for _, a := range r.Assigns {
		v, err := evalEnv(a.Expr, b.env)
		if err != nil {
			return false, err
		}
		if old, bound := b.env[a.Var]; bound {
			if old != v {
				return false, nil
			}
			continue
		}
		b.env[a.Var] = v
	}
	for _, w := range r.Where {
		v, err := evalEnv(w, b.env)
		if err != nil {
			return false, err
		}
		if ok, err := constraintResult(w, v); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}
