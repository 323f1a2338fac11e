package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// endOfExecution is the deadline for aggregate contributions: far past
// any logical tick a workload uses.
const endOfExecution = int64(1) << 40

// divergence describes the first point at which the bad execution departs
// from the good one (§4.4): the good-tree derivation that has no
// equivalent in the bad world.
type divergence struct {
	level    gLevel      // the good derivation with no bad equivalent
	expected ndlog.At    // the tuple that ought to exist in the bad world
	trigger  ndlog.At    // the aligned bad-world trigger at this level
	asOf     ndlog.Stamp // the bad-world time at which it is needed
}

// endOfTick is a stamp covering everything that happened within a tick.
func endOfTick(t int64) ndlog.Stamp {
	return ndlog.Stamp{T: t, Seq: ^uint64(0)}
}

// firstDivergence walks the good chain from the seed upward, predicting
// the equivalent bad-world tuple at each level and checking it against
// the bad execution's actual derivations. It returns nil when the chains
// align all the way to the root (the trees are equivalent).
func (d *diag) firstDivergence(ss *solvers, chainG []gLevel, w World, seedB ndlog.At) (*divergence, error) {
	g := graphFor(w, seedB)
	nw, narrow := w.(narrowWorld)

	// Locate the bad seed's APPEAR in the (possibly updated) bad graph:
	// prefer the appearance at the original tick, but fall back to the
	// latest one (counterfactual re-runs of instrumented systems may
	// shift event times).
	curID := -1
	appears := g.AppearVertexes(seedB.Node, seedB.Tuple)
	for _, id := range appears {
		if g.Vertex(id).At.T == seedB.Stamp.T {
			curID = id
			break
		}
	}
	if curID < 0 && len(appears) > 0 {
		curID = appears[len(appears)-1]
	}
	if curID < 0 {
		return nil, failf(NoProgress, "bad seed %s vanished from the bad execution", seedB.Tuple)
	}
	cur := ndlog.At{Node: seedB.Node, Tuple: seedB.Tuple, Stamp: g.Vertex(curID).At}

	for _, lvl := range chainG {
		rule := d.prog.Rule(lvl.derive.Vertex.Rule)
		if rule == nil {
			return nil, failf(NoProgress, "rule %s of the good tree is not in the program", lvl.derive.Vertex.Rule)
		}
		trigIdx := triggerAtomIndex(rule, lvl.derive)

		// The forward prediction is a pure function of the good derive
		// subtree, the trigger index, the head occurrence, and the bad
		// cursor's node and tuple — never of timestamps or the bad world —
		// so it memoizes under a fingerprint key across rounds, minimize
		// trials, and a wide pool's goroutines (the equal-subtree fast
		// path: an identical good subtree is never re-solved).
		var expected ndlog.At
		var key alignKey
		hit := false
		if d.align != nil {
			key = alignKey{
				deriveFP: lvl.derive.Fingerprint(),
				trigIdx:  trigIdx,
				headNode: lvl.headAt.Node,
				headKey:  lvl.headAt.Tuple.Key(),
				curNode:  cur.Node,
				curKey:   cur.Tuple.Key(),
			}
			d.alignMu.Lock()
			expected, hit = d.align[key]
			d.alignMu.Unlock()
		}
		if hit {
			atomic.AddInt64(&d.stats.FingerprintHits, 1)
		} else {
			var err error
			expected, err = d.expectedAtLevel(ss.get(0), lvl, rule, trigIdx, w, cur)
			if err != nil {
				return nil, err
			}
			if d.align != nil {
				d.alignMu.Lock()
				d.align[key] = expected
				d.alignMu.Unlock()
			}
		}

		// A demand trial derived the expected head only if it is covered;
		// if it is not, the world has widened to the full trial, and the
		// walk starts again on the full trial's graph.
		if narrow && !nw.cover(expected) {
			return d.firstDivergence(ss, chainG, w, seedB)
		}

		// Does the bad execution actually derive the expected tuple from
		// the current trigger via the same rule?
		match := -1
		if rule.CountVar != "" {
			// Aggregate level: the cursor is one contribution of the
			// group (the group fields were bound from it); the tree is
			// aligned here iff the group's FINAL count matches the
			// expectation, regardless of which contribution happened to
			// trigger the final derivation.
			if final, ok := finalAggTuple(w, rule, expected); ok && final.Equal(expected.Tuple) {
				if fa := g.LastAppear(expected.Node, final); fa != nil {
					match = fa.ID
				}
			}
		} else {
			cands := g.TriggerParents(curID)
			if ex := g.ExistOf(curID); ex >= 0 {
				cands = append(cands, g.TriggerParents(ex)...)
			}
			for _, pid := range cands {
				pv := g.Vertex(pid)
				if pv.Rule != rule.Name || !pv.Tuple.Equal(expected.Tuple) {
					continue
				}
				ha := g.HeadAppear(pid)
				if ha < 0 || g.Vertex(ha).Node != expected.Node {
					continue
				}
				// The graph is append-only, so a derivation the
				// counterfactual phase erased (delta replay: the timely run
				// with the changes applied would never have fired it) still
				// has its vertexes; the world's history is the authority on
				// whether the head occurrence still happened.
				hv := g.Vertex(ha)
				if !w.Exists(hv.Node, hv.Tuple, hv.At) {
					continue
				}
				match = ha
				break
			}
		}
		if match < 0 {
			return &divergence{level: lvl, expected: expected, trigger: cur, asOf: endOfTick(cur.Stamp.T)}, nil
		}
		hv := g.Vertex(match)
		curID = match
		cur = ndlog.At{Node: hv.Node, Tuple: hv.Tuple, Stamp: hv.At}
	}
	return nil, nil
}

// alignKey identifies one §4.4 forward-prediction instance. The good
// derive subtree is named by its structural fingerprint, which covers the
// rule name and every body occurrence's node and tuple; the trigger atom
// index and the head occurrence are properties of the derive's position
// in the chain (not covered by its own fingerprint), and the cursor is
// the bad-world trigger the prediction binds from. Stamps are deliberately
// absent: the solver never reads them, which is what lets predictions
// memoize across minimize trials whose injected changes shift stamps.
type alignKey struct {
	deriveFP uint64
	trigIdx  int
	headNode string
	headKey  string
	curNode  string
	curKey   string
}

// expectedAtLevel runs the §4.4 forward prediction for one chain level,
// on solver s: the head occurrence the bad world should derive from cur via
// the good derivation's rule, with side variables defaulted to good values.
func (d *diag) expectedAtLevel(s *solver, lvl gLevel, rule *ndlog.Rule, trigIdx int, w World, cur ndlog.At) (ndlog.At, error) {
	if err := s.load(d.prog, rule, lvl.derive); err != nil {
		return ndlog.At{}, err
	}
	if err := s.bindTrigger(trigIdx, cur); err != nil {
		return ndlog.At{}, failf(NoProgress, "%v", err)
	}
	if rule.CountVar != "" {
		// Aggregate level: the expected count is the good count.
		if cv, ok := headCountValue(rule, lvl.headAt.Tuple); ok {
			s.bind(s.countSlot, cv, fromDefault)
		}
	}
	s.propagate(nil) // forward mode: defaults side variables to good values
	if d.opts.FollowKeyedRows {
		s.followKeyedRows(w, d.prog, trigIdx, true, cur.Stamp.T)
	}
	return s.expectedHead(cur.Node)
}

// triggerAtomIndex maps a DERIVE vertex's trigger back to the rule's body
// atom index. For aggregates the single body atom is always the trigger.
func triggerAtomIndex(rule *ndlog.Rule, dn *provenance.Tree) int {
	if rule.CountVar != "" {
		return 0
	}
	if t := dn.Vertex.Trigger; t >= 0 && t < len(rule.Body) {
		return t
	}
	return 0
}

// groupFieldsEqual compares two aggregate head tuples ignoring the count
// argument positions.
func groupFieldsEqual(rule *ndlog.Rule, a, b ndlog.Tuple) bool {
	if a.Table != b.Table || len(a.Args) != len(b.Args) {
		return false
	}
	for j := range a.Args {
		if j < len(rule.Head.Args) && isVar(rule.Head.Args[j], rule.CountVar) {
			continue
		}
		if a.Args[j] != b.Args[j] {
			return false
		}
	}
	return true
}

// finalAggTuple finds the group's current (final) count tuple in the bad
// world's live state. The non-count group columns are bound by the
// expected tuple, so the lookup probes the aggregate-group hash index
// registered for every counting rule's head table.
func finalAggTuple(w World, rule *ndlog.Rule, expected ndlog.At) (ndlog.Tuple, bool) {
	var match []ndlog.Match
	for j := range expected.Tuple.Args {
		if j < len(rule.Head.Args) && isVar(rule.Head.Args[j], rule.CountVar) {
			continue
		}
		match = append(match, ndlog.Match{Col: j, Val: expected.Tuple.Args[j]})
	}
	for _, t := range w.TuplesMatchingAt(expected.Node, expected.Tuple.Table, endOfTick(endOfExecution), match) {
		if groupFieldsEqual(rule, t, expected.Tuple) {
			return t, true
		}
	}
	return ndlog.Tuple{}, false
}

// headCountValue extracts the aggregate count from a good head tuple.
func headCountValue(rule *ndlog.Rule, head ndlog.Tuple) (ndlog.Value, bool) {
	for j, e := range rule.Head.Args {
		if isVar(e, rule.CountVar) && j < len(head.Args) {
			return head.Args[j], true
		}
	}
	return nil, false
}

// makeAppear implements §4.5: make the expected tuple appear in the bad
// world, using the good derivation as a guide. trigB, when non-nil, is
// the already-aligned bad-world trigger at this level. needBy is the
// bad-world tick by which the expected tuple must exist; it is refined
// down the recursion so that counterfactual changes are injected
// "shortly before they are needed for the first time" (§4.8). Changes
// accumulate in d.pending.
func (d *diag) makeAppear(w World, gDerive *provenance.Tree, expected ndlog.At, trigB *ndlog.At, needBy int64, depth int) error {
	if depth > maxDepth {
		return failf(NoProgress, "MAKEAPPEAR recursion exceeds %d levels", maxDepth)
	}
	rule := d.prog.Rule(gDerive.Vertex.Rule)
	if rule == nil {
		return failf(NoProgress, "rule %s is not in the program", gDerive.Vertex.Rule)
	}
	// The diagnosis' own goroutine is the only one that makes tuples
	// appear, so the solver of this depth is its scratch's; the deeper
	// ones the recursion below takes leave this one alone.
	s := d.scratch.solve.get(depth)
	if err := s.load(d.prog, rule, gDerive); err != nil {
		return err
	}
	children := s.children
	if rule.CountVar != "" {
		// Aggregates bind only the group variables (from the expected
		// head); contributor-specific fields vary per contributor and
		// must not leak in from the trigger. Contributions may arrive
		// any time before the count is observed, so the deadline is the
		// end of the execution, not the trigger's occurrence; the
		// per-contributor recursion re-pins times from event triggers.
		if cv, ok := headCountValue(rule, expected.Tuple); ok {
			s.bind(s.countSlot, cv, fromHead)
		}
		return d.makeAggregateAppear(w, rule, children, s, expected, endOfExecution, depth)
	}
	trigIdx := triggerAtomIndex(rule, gDerive)
	if trigB != nil {
		if err := s.bindTrigger(trigIdx, *trigB); err != nil {
			return failf(NoProgress, "%v", err)
		}
		if trigB.Stamp.T < needBy {
			needBy = trigB.Stamp.T
		}
	}
	if err := s.bindHead(expected); err != nil {
		return err
	}
	s.propagate(&expected)

	// Refine the needed time: when the expected derivation is triggered
	// by an event, it can only fire at that event's occurrence, so the
	// other preconditions must be in place by then. (State triggers do
	// not pin a time: the derivation may fire whenever its inputs are
	// all present, up to the parent's deadline.)
	if trigB == nil {
		if decl := d.prog.Decl(rule.Body[trigIdx].Table); decl != nil && decl.Event {
			if ts, terr := s.sideTuple(trigIdx); terr == nil {
				if occ, ok := w.FirstOccurrence(ts.Node, ts.Tuple, needBy); ok && occ < needBy {
					needBy = occ
				}
			}
		}
	}

	// §4.5: "the tuple may exist even if it is not currently part of
	// T_B" — for side atoms whose variables were merely defaulted from
	// the good execution, prefer an existing bad-world tuple that
	// satisfies the rule over inventing a change.
	d.adoptExistingSides(w, rule, s, trigB, trigIdx, expected, needBy)

	if _, err := s.verify(expected); err != nil {
		if de, ok := err.(*DiagnosisError); ok {
			de.Tuple = expected.Tuple.Clone() // it may be the caller's solver scratch
			de.Node = expected.Node
		}
		return err
	}

	// Ensure every precondition of the expected derivation holds in the
	// bad world, recursing through the good tree for missing ones.
	pendingBefore := len(d.pending)
	for k := range rule.Body {
		if trigB != nil && k == trigIdx {
			continue
		}
		side, err := s.sideTuple(k)
		if err != nil {
			return err
		}
		if d.existsInB(w, side, needBy) {
			continue
		}
		if err := d.provide(w, children[k], side, needBy, depth); err != nil {
			return err
		}
	}

	// For priority rules, verify that the expected binding would actually
	// win the argmax in the bad world; suppress competitors otherwise.
	// When preconditions were just provided (often via derivations whose
	// consequences only materialize after replay), the check is deferred
	// to the next round, where the updated bad world is visible.
	if rule.ArgMax != "" && trigB != nil && len(d.pending) == pendingBefore {
		if err := d.resolveArgMax(w, rule, trigIdx, *trigB, s, children, expected, needBy); err != nil {
			return err
		}
	}
	return nil
}

// adoptExistingSides rebinds the defaulted variables of each side atom to
// match an existing bad-world tuple when the current (good-defaulted)
// values violate a constraint but some other tuple satisfies the rule and
// still derives the expected head.
func (d *diag) adoptExistingSides(w World, rule *ndlog.Rule, s *solver, trigB *ndlog.At, trigIdx int, expected ndlog.At, needBy int64) {
	if s.constraintsHold(s.envB) {
		return
	}
	for k, atom := range rule.Body {
		if trigB != nil && k == trigIdx {
			continue
		}
		base := slices.Clone(s.envB)
		if s.freeDefaulted(base, k) == 0 {
			continue
		}
		// Current assignment already fine? Keep it.
		if s.constraintsHold(s.envB) {
			return
		}
		node, known, err := s.cr.Locate(locClause(k), "", base)
		var nodes []string
		if err == nil && known && node != "" {
			nodes = []string{node}
		} else {
			nodes = w.Nodes()
		}
		trial := make([]ndlog.Value, len(base))
		for _, nn := range nodes {
			for _, t := range w.TuplesMatchingAt(nn, atom.Table, endOfTick(needBy), nil) {
				copy(trial, base)
				if !s.cr.Unify(k, trial, s.ss.loc(nn), t) {
					continue
				}
				if !s.constraintsHold(trial) || !s.headConsistent(trial, expected) {
					continue
				}
				s.bindAll(trial, fromRepair)
				break
			}
		}
	}
}

// provide makes one missing precondition appear: a base change if the
// good execution obtained it as a base tuple, a recursive MAKEAPPEAR if
// it was derived.
func (d *diag) provide(w World, gc childAt, side ndlog.At, needBy int64, depth int) error {
	if gc.cause == nil {
		return failf(NoProgress, "good tree does not explain %s", gc.at.Tuple)
	}
	if gc.base {
		tick := d.changeTick(w, side, needBy)
		// side is a solver's scratch (sideTuple): what is kept is a copy.
		if !w.IsMutable(side.Node, side.Tuple) {
			t := side.Tuple.Clone()
			return &DiagnosisError{
				Kind: ImmutableChange,
				Detail: fmt.Sprintf("aligning the trees requires inserting %s on %s, but that tuple is immutable; pick a different reference event",
					side.Tuple, side.Node),
				Tuple:     t,
				Node:      side.Node,
				Attempted: []replay.Change{{Insert: true, Node: side.Node, Tuple: t, Tick: tick}},
			}
		}
		d.addChange(replay.Change{Insert: true, Node: side.Node, Tuple: side.Tuple, Tick: tick})
		return nil
	}
	return d.makeAppear(w, gc.cause, side, nil, needBy, depth+1)
}

// changeTick picks when to inject a counterfactual insertion: shortly
// before it is needed, but after any bad-world base insertion it must
// override (keyed tables replace on insert, so injecting before the bad
// execution's own write would be undone by it).
func (d *diag) changeTick(w World, side ndlog.At, needBy int64) int64 {
	tick := needBy - injectSlack
	decl := d.prog.Decl(side.Tuple.Table)
	if decl == nil || len(decl.Key) == 0 {
		return tick
	}
	for _, t := range w.TuplesMatchingAt(side.Node, side.Tuple.Table, endOfTick(needBy), nil) {
		if t.Equal(side.Tuple) || !sameKey(decl, t, side.Tuple) {
			continue
		}
		if occ, ok := w.FirstOccurrence(side.Node, t, needBy); ok && occ+1 > tick {
			tick = occ + 1
		}
	}
	return tick
}

// sameKey reports whether two tuples of a keyed table agree on its key
// columns, compared with == as the engine's replacement compares them.
func sameKey(decl *ndlog.TableDecl, a, b ndlog.Tuple) bool {
	for _, i := range decl.Key {
		if i < len(a.Args) && i < len(b.Args) && a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// makeAggregateAppear aligns an aggregate (count) derivation: every
// contributing event of the good execution must have an equivalent in the
// bad world. Each good contributor is mapped into the bad world through
// the group variables bound from the expected head (the taint), with its
// remaining fields defaulted to the good values.
func (d *diag) makeAggregateAppear(w World, rule *ndlog.Rule, children []childAt, s *solver, expected ndlog.At, needBy int64, depth int) error {
	if err := s.bindHead(expected); err != nil {
		return err
	}
	atom := rule.Body[0]
	s.frames[0], s.frames[1] = frame(s.frames[0], len(s.envB)), frame(s.frames[1], len(s.envB))
	envC, envG := s.frames[0], s.frames[1]
	for _, gc := range children {
		// Bind the contributor's own fields from the good occurrence,
		// keeping the head-derived (tainted) bindings.
		copy(envC, s.envB)
		clear(envG)
		if !s.cr.Unify(0, envG, s.ss.loc(gc.at.Node), gc.at.Tuple) {
			return failf(NoProgress, "contributor %s does not unify with %s", gc.at.Tuple, atom)
		}
		for slot, v := range envG {
			if v != nil && envC[slot] == nil {
				envC[slot] = v
			}
		}
		args, _, err := s.sideArgs(0, envC)
		if err != nil {
			continue
		}
		node, known, err := s.cr.Locate(locClause(0), gc.at.Node, envC)
		if err != nil || !known {
			node = gc.at.Node
		}
		side := ndlog.At{Node: node, Tuple: ndlog.Tuple{Table: atom.Table, Args: args}}
		if d.existsInB(w, side, needBy) {
			continue
		}
		if err := d.provide(w, gc, side, needBy, depth); err != nil {
			return err
		}
	}
	return nil
}

// addChange appends a change, deduplicating. A change identical to an
// existing one but needed earlier is kept: a later round may discover
// that the same tuple was needed before the point it was first injected.
func (d *diag) addChange(c replay.Change) {
	for _, p := range d.pending {
		if p.Insert == c.Insert && p.Node == c.Node && p.Tuple.Equal(c.Tuple) && p.Tick <= c.Tick {
			return
		}
	}
	if d.isApplied(c) {
		return
	}
	c.Tuple = c.Tuple.Clone() // it may be a solver's scratch
	d.pending = append(d.pending, c)
}

// existsInB reports whether the tuple is available in the bad world at
// the given tick, taking pending (not yet applied) changes into account.
func (d *diag) existsInB(w World, at ndlog.At, needBy int64) bool {
	for _, p := range d.pending {
		if p.Node == at.Node && p.Tuple.Equal(at.Tuple) && p.Tick <= needBy {
			return p.Insert
		}
	}
	decl := d.prog.Decl(at.Tuple.Table)
	if decl != nil && decl.Event {
		_, ok := w.FirstOccurrence(at.Node, at.Tuple, needBy)
		return ok
	}
	return w.Exists(at.Node, at.Tuple, endOfTick(needBy))
}
