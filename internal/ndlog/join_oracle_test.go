package ndlog

import "fmt"

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
// before rules were compiled to slot frames (compile.go): it unifies through
// the exported UnifyAtom / ResolveLocation and checks rows with its own
// map-based quickMatch, so the differential also holds the compiled atoms
// to the map semantics the DiffProv reasoning engine still uses.

// oracleBinding is a binding as the reference join builds it.
type oracleBinding struct {
	env  Env
	body []At
}

// envQuickMatch is quickMatch over a map environment.
func envQuickMatch(atom Atom, env Env, t Tuple) bool {
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
func envProbeHash(atom Atom, spec *indexSpec, env Env) (uint64, bool) {
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
	env := Env{}
	if !UnifyAtom(r.Body[deltaAtom], nodeName, delta, env) {
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
			if Less(bb, bi) || (!Less(bi, bb) && BindingKey(sat[i].env) < BindingKey(sat[best].env)) {
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
	if e.rfPin != nil && next == e.rfPinAtom {
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
	locNode, locKnown, err := ResolveLocation(atom.Loc, evalNode, b.env)
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
	for _, nn := range e.nodeOrder {
		bn := oracleBinding{env: b.env.Clone(), body: b.body}
		bn.env[string(v)] = Str(nn)
		sub, err := e.joinAtom(r, deltaAtom, evalNode, bn, next, st, nn)
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
	n := e.nodes[nodeName]
	if n == nil {
		return nil, nil
	}
	tb := n.tables[atom.Table]
	if tb == nil {
		return nil, nil
	}
	rows := tb.order
	if spec := e.rules[r.Name].plan(deltaAtom, next); spec != nil {
		if h, ok := envProbeHash(atom, spec, b.env); ok && spec.pos < len(tb.indexes) {
			rows = tb.indexes[spec.pos].buckets[h]
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
		env2 := b.env.Clone()
		if !UnifyAtom(atom, nodeName, rw.tuple, env2) {
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
	rw, nodeName := e.rfPin, e.rfPinNode
	locNode, locKnown, err := ResolveLocation(atom.Loc, evalNode, b.env)
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
	env2 := b.env.Clone()
	if !UnifyAtom(atom, nodeName, rw.tuple, env2) {
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
		v, err := a.Expr.Eval(b.env)
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
		ok, err := EvalBool(w, b.env)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}
