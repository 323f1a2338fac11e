package ndlog

import "fmt"

// The join core: one backtracking enumerator behind every rule firing.
//
// A firing binds the delta tuple at its body atom and extends that one
// environment over the remaining atoms in atom order — rows in appearance
// (or index-bucket) order, nodes in nodeOrder for an unbound location —
// depth first. Every variable bound on the way is recorded on a trail and
// unbound again on backtrack, so a row that fails to unify, or a complete
// body that fails an assignment or a `where` constraint, costs no
// allocation: a binding is copied out of the scratch only once it has
// survived all of them. The enumeration order is exactly that of a
// nested-loop join returning its bindings atom by atom, which is what keeps
// derivation IDs, stamps and index counters independent of how the join is
// implemented (TestJoinDifferential pins it against that reference).

// binding is one satisfying assignment of a rule body, copied out of the
// join scratch. Its parts are private to it and write-once afterwards.
type binding struct {
	env  Env
	body []At      // per body atom: the matched tuple and its appearance stamp
	refs []BodyRef // the same elements as support references, keys as the rows hold them
}

// joinScratch is the state a firing enumerates in. It belongs to one
// engine (forks start with their own, empty) and is empty between firings:
// enumeration never re-enters the engine, and consequences of a binding —
// which may fire further rules — start only after satBindings has returned.
type joinScratch struct {
	env   Env
	trail []string // variables bound since the firing began, in binding order
	body  []At
	keys  []string // Tuple.Key() of each body element
	sat   []binding
}

func (j *joinScratch) bind(name string, v Value) {
	j.env[name] = v
	j.trail = append(j.trail, name)
}

// undo unbinds every variable bound since the trail was mark long.
func (j *joinScratch) undo(mark int) {
	for _, name := range j.trail[mark:] {
		delete(j.env, name)
	}
	j.trail = j.trail[:mark]
}

// satBindings enumerates the satisfying bindings of rule r with the delta
// tuple (deltaKey is its Key()) bound at body atom deltaAtom, joining state
// as of st. For an argmax rule only the winning binding is returned. On
// error no binding is returned; on every path the scratch environment is
// left empty.
func (e *Engine) satBindings(r *Rule, deltaAtom int, nodeName string, delta Tuple, deltaKey string, st Stamp) ([]binding, error) {
	j := &e.join
	if j.env == nil {
		// Every counterfactual trial forks an engine, so the scratch starts
		// small; a rule with more variables grows it once.
		j.env = make(Env, 8)
	}
	j.body = append(j.body[:0], make([]At, len(r.Body))...)
	j.keys = append(j.keys[:0], make([]string, len(r.Body))...)
	var err error
	if unifyTrail(r.Body[deltaAtom], nodeName, e.locOf(nodeName), delta, j.env, &j.trail) {
		j.body[deltaAtom] = At{Node: nodeName, Tuple: delta, Stamp: st}
		j.keys[deltaAtom] = deltaKey
		err = e.joinFrom(r, deltaAtom, nodeName, 0, st)
	}
	j.undo(0)
	sat := j.sat
	j.sat = nil
	if err != nil {
		return nil, err
	}
	return sat, nil
}

// locOf returns Str(nodeName) as the node boxed it, or nil for a node the
// engine has not seen (unifyTrail then boxes on demand).
func (e *Engine) locOf(nodeName string) Value {
	if n := e.nodes[nodeName]; n != nil {
		return n.loc
	}
	return nil
}

// joinFrom extends the scratch binding over body atoms next.. (hash join in
// atom order, skipping the delta atom; atoms with no bound columns scan).
func (e *Engine) joinFrom(r *Rule, deltaAtom int, evalNode string, next int, st Stamp) error {
	if next == deltaAtom {
		next++
	}
	if next >= len(r.Body) {
		return e.joinLeaf(r)
	}
	j := &e.join
	atom := r.Body[next]
	if e.rfPin != nil && next == e.rfPinAtom {
		// Delta re-fire: the counterfactual row is pinned at this position
		// (delta.go); only it may match, so bindings over main-phase rows
		// alone — which the base run already derived — are not re-derived.
		locNode, locKnown, err := resolveLoc(atom.Loc, evalNode, j.env)
		if err != nil {
			return fmt.Errorf("ndlog: rule %s: %v", r.Name, err)
		}
		if locKnown && locNode != e.rfPinNode {
			return nil
		}
		return e.joinRow(r, deltaAtom, evalNode, next, st, e.rfPinNode, e.rfPin)
	}
	decl := e.prog.Decl(atom.Table)
	if decl == nil {
		return fmt.Errorf("ndlog: rule %s: unknown table %s", r.Name, atom.Table)
	}
	if decl.Event {
		// Event tuples are not stored; only the delta position can be an
		// event atom, so a non-delta event atom never joins.
		return nil
	}
	locNode, locKnown, err := resolveLoc(atom.Loc, evalNode, j.env)
	if err != nil {
		return fmt.Errorf("ndlog: rule %s: %v", r.Name, err)
	}
	if locKnown {
		return e.joinNode(r, deltaAtom, evalNode, next, st, locNode)
	}
	// Unbound location variable: try every node deterministically, binding
	// it for the node's subtree only.
	v := string(atom.Loc.(Var))
	for _, nn := range e.nodeOrder {
		mark := len(j.trail)
		j.bind(v, e.nodes[nn].loc)
		err := e.joinNode(r, deltaAtom, evalNode, next, st, nn)
		j.undo(mark)
		if err != nil {
			return err
		}
	}
	return nil
}

// joinNode matches body atom next against one node's table. When the join
// plan has bound columns for the atom it probes the table's hash index —
// the bucket holds rows in appearance order, so the rows tried are a
// subsequence of the full scan's.
func (e *Engine) joinNode(r *Rule, deltaAtom int, evalNode string, next int, st Stamp, nodeName string) error {
	atom := r.Body[next]
	n := e.nodes[nodeName]
	if n == nil {
		return nil
	}
	tb := n.tables[atom.Table]
	if tb == nil {
		return nil
	}
	rows := tb.order
	if spec := e.planFor(r, deltaAtom, next); spec != nil {
		if key, ok := probeKey(atom, spec, e.join.env); ok {
			if ix := tb.indexes[spec.sig]; ix != nil {
				rows = ix.buckets[key]
				e.stats.IndexProbes++
			} else {
				e.stats.IndexFallbacks++
			}
		} else {
			e.stats.IndexFallbacks++
		}
	} else {
		e.stats.IndexScans++
	}
	for _, rw := range rows {
		if err := e.joinRow(r, deltaAtom, evalNode, next, st, nodeName, rw); err != nil {
			return err
		}
	}
	return nil
}

// joinRow unifies body atom next with one row as of st and, if it fits,
// recurses over the remaining atoms; the row's bindings are undone before
// it returns. quickMatch first turns away rows that disagree with a
// constant or a bound variable without touching the environment.
func (e *Engine) joinRow(r *Rule, deltaAtom int, evalNode string, next int, st Stamp, nodeName string, rw *row) error {
	j := &e.join
	if rw.dead || st.Before(rw.appearedAt) || !quickMatch(r.Body[next], j.env, rw.tuple) {
		return nil
	}
	mark := len(j.trail)
	var err error
	// The atom's location is bound by now (joinFrom resolved or bound it) in
	// every case but a pinned row under an unbound location variable, so no
	// boxed node name is looked up here.
	if unifyTrail(r.Body[next], nodeName, nil, rw.tuple, j.env, &j.trail) {
		j.body[next] = At{Node: nodeName, Tuple: rw.tuple, Stamp: rw.appearedAt}
		j.keys[next] = rw.key
		err = e.joinFrom(r, deltaAtom, evalNode, next+1, st)
	}
	j.undo(mark)
	return err
}

// joinLeaf applies the rule's assignments and constraints to a complete
// body match and copies the binding out if it survives. An assignment whose
// variable is already bound by the body acts as a unification constraint:
// the binding survives only if the computed value matches (datalog
// semantics of "="). An argmax rule keeps only the best binding so far:
// the larger value wins, ties go to the smaller canonical binding key.
func (e *Engine) joinLeaf(r *Rule) error {
	j := &e.join
	mark := len(j.trail)
	ok, err := j.finish(r)
	if ok && r.ArgMax != "" && len(j.sat) == 1 {
		nv, bv := j.env[r.ArgMax], j.sat[0].env[r.ArgMax]
		ok = Less(bv, nv) || (!Less(nv, bv) && BindingKey(j.env) < BindingKey(j.sat[0].env))
		if ok {
			j.sat = j.sat[:0]
		}
	}
	if ok {
		b := binding{env: j.env.Clone(), body: make([]At, len(j.body)), refs: make([]BodyRef, len(j.body))}
		copy(b.body, j.body)
		for i, at := range j.body {
			b.refs[i] = BodyRef{Node: at.Node, Key: j.keys[i], Seq: at.Stamp.Seq}
		}
		j.sat = append(j.sat, b)
	}
	j.undo(mark)
	if err != nil {
		return fmt.Errorf("ndlog: rule %s: %v", r.Name, err)
	}
	return nil
}

// finish binds the rule's assignments (on the trail) and checks its
// constraints against the scratch environment.
func (j *joinScratch) finish(r *Rule) (bool, error) {
	for _, a := range r.Assigns {
		v, err := a.Expr.Eval(j.env)
		if err != nil {
			return false, err
		}
		if old, bound := j.env[a.Var]; bound {
			if old != v {
				return false, nil
			}
			continue
		}
		j.bind(a.Var, v)
	}
	for _, w := range r.Where {
		ok, err := EvalBool(w, j.env)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}
