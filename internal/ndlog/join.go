package ndlog

import "fmt"

// The join core: one backtracking enumerator behind every rule firing.
//
// A firing binds the delta tuple at its body atom and extends that one
// frame (compile.go) over the remaining atoms in atom order — rows in appearance
// (or index-bucket) order, nodes in nodeOrder for an unbound location —
// depth first. Every slot bound on the way is recorded on a trail and
// unbound again on backtrack, so a row that fails to unify, or a complete
// body that fails an assignment or a `where` constraint, costs no
// allocation: a binding is copied out of the scratch only once it has
// survived all of them. The enumeration order is exactly that of a
// nested-loop join returning its bindings atom by atom, which is what keeps
// derivation IDs, stamps and index counters independent of how the join is
// implemented (TestJoinDifferential pins it against that reference).

// binding is one satisfying assignment of a rule body, copied out of the
// join scratch. refs is its own window of the engine's arena, write-once,
// and the part of it that lives on: a derivation's support references. frame
// (the variables by slot) and body live on the scratch's stacks and are the
// binding's to read — the frame also to write — until the firing's bindings
// are released.
type binding struct {
	frame []Value
	body  []At      // per body atom: the matched tuple and its appearance stamp
	refs  []BodyRef // the same elements as support references, keys as the rows hold them
}

// joinScratch is the state a firing enumerates in. It is part of an
// engine's scratch (scratch.go), which a settled fork hands on to the next
// fork of its base. Enumeration never re-enters
// the engine, so frame, trail and body serve one firing at a time and are
// empty between firings. The consequences of a binding do re-enter —
// a count() head appears, and fires the rules it triggers, from inside the
// loop over the counting rule's bindings — so the surviving bindings are
// kept on stacks: satBindings pushes, whoever consumes the bindings
// releases them back to the mark satBindings returned, and a nested firing
// pushes and pops above them.
type joinScratch struct {
	frame []Value   // the firing's variables by slot; nil = unbound
	trail []int     // slots bound since the firing began, in binding order
	body  []KeyedAt // per body atom, the element matched so far
	sat   []binding
	first int // where on sat the firing being enumerated started
	// frames and bodies back the frame and body of every binding on sat.
	// Growing one moves the stack to a new array; bindings pushed before
	// keep using the old one, which nothing else touches again.
	frames []Value
	bodies []At
}

// satMark is a position on the scratch's binding stacks.
type satMark struct{ sat, frames, bodies int }

func (j *joinScratch) mark() satMark {
	return satMark{sat: len(j.sat), frames: len(j.frames), bodies: len(j.bodies)}
}

// release pops every binding pushed since m.
func (j *joinScratch) release(m satMark) {
	clear(j.sat[m.sat:])
	j.sat = j.sat[:m.sat]
	clear(j.frames[m.frames:])
	j.frames = j.frames[:m.frames]
	clear(j.bodies[m.bodies:])
	j.bodies = j.bodies[:m.bodies]
}

// blank returns the scratch frame, all unbound, sized for n variables.
func (j *joinScratch) blank(n int) []Value {
	if cap(j.frame) < n {
		j.frame = make([]Value, n)
	}
	j.frame = j.frame[:n]
	return j.frame
}

func (j *joinScratch) bind(slot int, v Value) {
	j.frame[slot] = v
	j.trail = append(j.trail, slot)
}

// undo unbinds every variable bound since the trail was mark long.
func (j *joinScratch) undo(mark int) {
	for _, slot := range j.trail[mark:] {
		j.frame[slot] = nil
	}
	j.trail = j.trail[:mark]
}

// push copies the scratch's complete match out as a new binding on sat; its
// refs are a window of the engine's arena.
func (j *joinScratch) push(a *arena) {
	nf, nb := len(j.frames), len(j.bodies)
	j.frames = append(j.frames, make([]Value, len(j.frame))...)
	j.bodies = append(j.bodies, make([]At, len(j.body))...)
	b := binding{
		frame: j.frames[nf:len(j.frames):len(j.frames)],
		body:  j.bodies[nb:len(j.bodies):len(j.bodies)],
		refs:  a.refs.take(len(j.body), 0),
	}
	j.keep(&b)
	j.sat = append(j.sat, b)
}

// keep copies the scratch's complete match into b.
func (j *joinScratch) keep(b *binding) {
	copy(b.frame, j.frame)
	for i, el := range j.body {
		b.body[i], b.refs[i] = el.At, el.Ref()
	}
}

// satBindings enumerates the satisfying bindings of rule r with the delta
// tuple (deltaKey is its Key()) bound at body atom deltaAtom, joining state
// as of st. For an argmax rule only the winning binding is returned. The
// bindings stay valid until the caller releases the returned mark, which it
// must do on every path. On error no binding is returned; on every path the
// scratch frame is left unbound.
func (e *Engine) satBindings(r *CompiledRule, deltaAtom int, nodeName string, delta Tuple, deltaKey string, st Stamp) ([]binding, satMark, error) {
	j := &e.scratch().join
	m := j.mark()
	j.first = m.sat
	j.blank(len(r.vars))
	j.body = append(j.body[:0], make([]KeyedAt, len(r.body))...)
	var err error
	if r.body[deltaAtom].unify(j.frame, &j.trail, nodeName, e.locOf(nodeName), delta) {
		j.body[deltaAtom] = keyedAt(nodeName, delta, deltaKey, st)
		err = e.joinFrom(r, deltaAtom, nodeName, 0, st)
	}
	j.undo(0)
	if err != nil {
		j.release(m)
		return nil, m, err
	}
	return j.sat[m.sat:], m, nil
}

// locOf returns Str(nodeName) as the node boxed it, or nil for a node the
// engine has not seen (unify then boxes on demand).
func (e *Engine) locOf(nodeName string) Value {
	if n := e.nodes.Get(nodeName); n != nil {
		return n.loc
	}
	return nil
}

// joinFrom extends the scratch binding over body atoms next.. (hash join in
// atom order, skipping the delta atom; atoms with no bound columns scan).
func (e *Engine) joinFrom(r *CompiledRule, deltaAtom int, evalNode string, next int, st Stamp) error {
	if next == deltaAtom {
		next++
	}
	if next >= len(r.body) {
		return e.joinLeaf(r)
	}
	j := &e.work.join
	atom := &r.body[next]
	if pin, pinNode := e.pinned(next); pin != nil {
		// Delta re-fire: the counterfactual row is pinned at this position
		// (delta.go); only it may match, so bindings over main-phase rows
		// alone — which the base run already derived — are not re-derived.
		locNode, locKnown, err := atom.loc.resolve(evalNode, j.frame)
		if err != nil {
			return fmt.Errorf("ndlog: rule %s: %v", r.name, err)
		}
		if locKnown && locNode != pinNode {
			return nil
		}
		// Under an unbound location variable the row binds it, to the
		// pinned node.
		return e.joinRow(r, deltaAtom, evalNode, next, st, pinNode, e.locOf(pinNode), pin)
	}
	if atom.decl == nil {
		return fmt.Errorf("ndlog: rule %s: unknown table %s", r.name, atom.table)
	}
	if atom.decl.Event {
		// An event occurrence's row is born dead, so only the delta
		// position can bind an event atom; a non-delta one never joins.
		return nil
	}
	locNode, locKnown, err := atom.loc.resolve(evalNode, j.frame)
	if err != nil {
		return fmt.Errorf("ndlog: rule %s: %v", r.name, err)
	}
	if locKnown {
		return e.joinNode(r, deltaAtom, evalNode, next, st, locNode)
	}
	// Unbound location variable: try every node deterministically, binding
	// it for the node's subtree only.
	for _, n := range e.nodeOrder {
		mark := len(j.trail)
		j.bind(atom.loc.slot, n.loc)
		err := e.joinNode(r, deltaAtom, evalNode, next, st, n.name)
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
// subsequence of the full scan's (plus whatever collides, which joinRow's
// quickMatch turns away like any other row that does not fit).
func (e *Engine) joinNode(r *CompiledRule, deltaAtom int, evalNode string, next int, st Stamp, nodeName string) error {
	atom := &r.body[next]
	tb := e.table(nodeName, atom.table)
	if tb == nil {
		return nil
	}
	// The atom's location is bound by now (joinFrom resolved or bound it),
	// so no boxed node name is needed.
	if spec := e.plans.plan(r, deltaAtom, next); spec != nil {
		if h, ok := atom.probeHash(spec, e.work.join.frame); ok && spec.pos < len(tb.indexes) {
			e.stats.IndexProbes++
			for _, pos := range tb.indexes[spec.pos].buckets.Get(h) {
				if err := e.joinRow(r, deltaAtom, evalNode, next, st, nodeName, nil, tb.row(int(pos))); err != nil {
					return err
				}
			}
			return nil
		}
		e.stats.IndexFallbacks++
	} else {
		e.stats.IndexScans++
	}
	for _, rows := range tb.parts() {
		for _, rw := range rows {
			if err := e.joinRow(r, deltaAtom, evalNode, next, st, nodeName, nil, rw); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinRow unifies body atom next with one row as of st and, if it fits,
// recurses over the remaining atoms; the row's bindings are undone before
// it returns. quickMatch first turns away rows that disagree with a
// constant or a bound variable without touching the frame.
func (e *Engine) joinRow(r *CompiledRule, deltaAtom int, evalNode string, next int, st Stamp, nodeName string, loc Value, rw *row) error {
	j := &e.work.join
	atom := &r.body[next]
	if rw.dead || st.Before(rw.appearedAt) || !atom.quickMatch(j.frame, rw.tuple) {
		return nil
	}
	mark := len(j.trail)
	var err error
	if atom.unify(j.frame, &j.trail, nodeName, loc, rw.tuple) {
		j.body[next] = keyedAt(nodeName, rw.tuple, rw.key, rw.appearedAt)
		err = e.joinFrom(r, deltaAtom, evalNode, next+1, st)
	}
	j.undo(mark)
	return err
}

// joinLeaf applies the rule's assignments and constraints to a complete
// body match and copies the binding out if it survives. An assignment whose
// variable is already bound by the body acts as a unification constraint:
// the binding survives only if the computed value matches (datalog
// semantics of "="). An argmax rule keeps only the best binding so far —
// the larger value wins, ties go to the smaller canonical binding key — and
// a better one overwrites it in place.
func (e *Engine) joinLeaf(r *CompiledRule) error {
	j := &e.work.join
	mark := len(j.trail)
	ok, err := j.finish(r)
	switch {
	case !ok:
	case r.argMaxSlot >= 0 && len(j.sat) > j.first:
		if best := &j.sat[j.first]; r.Beats(j.frame, best.frame) {
			j.keep(best)
		}
	default:
		j.push(&e.arena)
	}
	j.undo(mark)
	if err != nil {
		return fmt.Errorf("ndlog: rule %s: %v", r.name, err)
	}
	return nil
}

// finish binds the rule's assignments (on the trail) and checks its
// constraints against the scratch frame.
func (j *joinScratch) finish(r *CompiledRule) (bool, error) {
	for _, a := range r.assigns {
		v, err := a.e.eval(j.frame)
		if err != nil {
			return false, err
		}
		if old := j.frame[a.slot]; old != nil {
			if old != v {
				return false, nil
			}
			continue
		}
		j.bind(a.slot, v)
	}
	for i := range r.where {
		if ok, err := r.where[i].holds(j.frame); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}
