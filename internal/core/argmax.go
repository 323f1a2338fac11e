package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// candidate is one satisfying binding of a rule body in the bad world.
type candidate struct {
	frame []ndlog.Value
	body  []ndlog.At
}

// resolveArgMax checks that the expected binding would win the rule's
// priority selection in the bad world. If a competing binding wins
// instead (the paper's SDN2: a conflicting higher-priority rule installed
// by another controller app), the competitor's distinguishing tuple is
// suppressed. This iterates because several competitors may shadow the
// expected derivation.
func (d *diag) resolveArgMax(w World, rule *ndlog.Rule, trigIdx int, trigB ndlog.At, s *solver, children []childAt, expected ndlog.At, needBy int64) error {
	for guard := 0; guard < 16; guard++ {
		cands, err := d.joinCandidates(w, s, trigIdx, trigB, endOfTick(needBy))
		if err != nil {
			return err
		}
		if len(cands) == 0 {
			return nil // the expected binding is pending insertion; nothing competes
		}
		winner := pickArgMax(cands, s.cr)
		if slices.Equal(winner.frame, s.envB) {
			return nil
		}
		// Also accept a winner that derives the same head (an equivalent
		// but differently-bound derivation).
		if head, err := s.headUnder(winner.frame, trigB.Node); err == nil && head.Tuple.Equal(expected.Tuple) && head.Node == expected.Node {
			return nil
		}
		// Suppress the competitor: delete its distinguishing side tuple.
		ch, err := d.competitorChange(w, rule, trigIdx, winner, s, children, needBy)
		if err != nil {
			return err
		}
		before := len(d.pending)
		d.addChange(ch)
		if len(d.pending) == before {
			// The suppressing change is already pending but its effect
			// is indirect (e.g. deleting the base tuple underives the
			// competitor only after replay): defer to the next round.
			return nil
		}
	}
	return failf(NoProgress, "could not resolve argmax conflicts for rule %s", rule.Name)
}

// competitorChange picks the winning competitor's side tuple to delete:
// the first mutable base tuple that differs from the expected binding's
// counterpart. When the competitor tuple is itself derived, its
// provenance in the bad world is traced down to a mutable base leaf
// (skipping leaves the expected derivation also depends on).
func (d *diag) competitorChange(w World, rule *ndlog.Rule, trigIdx int, winner candidate, s *solver, children []childAt, needBy int64) (replay.Change, error) {
	var immutableHit *DiagnosisError
	for k := range rule.Body {
		if k == trigIdx {
			continue
		}
		side := winner.body[k]
		exp, err := s.sideTuple(k)
		if err == nil && exp.Tuple.Equal(side.Tuple) && exp.Node == side.Node {
			continue // shared with the expected derivation: not the culprit
		}
		decl := d.prog.Decl(side.Tuple.Table)
		if decl == nil {
			continue
		}
		if decl.Base {
			if !w.IsMutable(side.Node, side.Tuple) {
				immutableHit = &DiagnosisError{
					Kind: ImmutableChange,
					Detail: fmt.Sprintf("the higher-priority tuple %s on %s shadows the expected derivation but is immutable",
						side.Tuple, side.Node),
					Tuple:     side.Tuple,
					Node:      side.Node,
					Attempted: []replay.Change{{Insert: false, Node: side.Node, Tuple: side.Tuple, Tick: d.deleteTick(w, side, needBy)}},
				}
				continue
			}
			return replay.Change{Insert: false, Node: side.Node, Tuple: side.Tuple, Tick: d.deleteTick(w, side, needBy)}, nil
		}
		// Derived competitor: trace its bad-world provenance to a
		// mutable base leaf not shared with the expected derivation.
		if ch, ok := d.traceCompetitorBase(w, side, children, k, needBy); ok {
			return ch, nil
		}
	}
	if immutableHit != nil {
		return replay.Change{}, immutableHit
	}
	return replay.Change{}, failf(NoProgress, "argmax competitor for rule %s has no mutable distinguishing tuple", rule.Name)
}

// traceCompetitorBase walks the bad-world provenance of a derived
// competitor tuple and returns a deletion of one of its mutable base
// leaves — excluding leaves that also support the expected derivation's
// good-world counterpart (shared infrastructure must survive).
func (d *diag) traceCompetitorBase(w World, side ndlog.At, children []childAt, k int, needBy int64) (replay.Change, bool) {
	g := graphFor(w, side)
	ap := g.LastAppear(side.Node, side.Tuple)
	if ap == nil {
		return replay.Change{}, false
	}
	// Collect the base leaves of the expected counterpart's good subtree.
	shared := map[ndlog.TupleRef]bool{}
	if k < len(children) && children[k].cause != nil {
		children[k].cause.Walk(func(n *provenance.Tree) {
			if n.Vertex.Type == provenance.Insert {
				shared[n.Vertex.TupleRef()] = true
			}
		})
	}
	pick := g.FindInTree(ap.ID, func(v *provenance.Vertex) bool {
		return v.Type == provenance.Insert && !shared[v.TupleRef()] && w.IsMutable(v.Node, v.Tuple)
	})
	if pick == nil {
		return replay.Change{}, false
	}
	return replay.Change{Insert: false, Node: pick.Node, Tuple: pick.Tuple, Tick: d.deleteTick(w, ndlog.At{Node: pick.Node, Tuple: pick.Tuple}, needBy)}, true
}

// deleteTick picks when to inject a counterfactual deletion: shortly
// before the shadowed derivation is needed, but after the tuple's own
// insertion (a deletion scheduled before the insertion is a no-op).
func (d *diag) deleteTick(w World, side ndlog.At, needBy int64) int64 {
	tick := needBy - injectSlack
	if occ, ok := w.FirstOccurrence(side.Node, side.Tuple, needBy); ok && occ+1 > tick {
		tick = occ + 1
	}
	return tick
}

// joinCandidates enumerates the satisfying bindings of the solver's rule
// body in the bad world at the given time, with the trigger atom fixed, and
// with pending changes taken into account. It mirrors the engine's
// evaluation (including constraints and assignments) so that the predicted
// argmax winner matches what replay will do.
func (d *diag) joinCandidates(w World, s *solver, trigIdx int, trigB ndlog.At, asOf ndlog.Stamp) ([]candidate, error) {
	rule, cr := s.rule, s.cr
	f := cr.Frame()
	if !cr.Unify(trigIdx, f, s.ss.loc(trigB.Node), trigB.Tuple) {
		return nil, failf(NoProgress, "trigger %s does not unify with %s", trigB.Tuple, rule.Body[trigIdx])
	}
	seed := candidate{frame: f, body: make([]ndlog.At, len(rule.Body))}
	seed.body[trigIdx] = trigB
	all, err := d.joinRest(w, s, trigIdx, trigB.Node, seed, 0, asOf)
	if err != nil {
		return nil, err
	}
	var sat []candidate
	for _, c := range all {
		ok := true
		for i := range rule.Assigns {
			v, err := cr.Eval(assignClause(i), c.frame)
			if err != nil {
				ok = false
				break
			}
			c.frame[cr.Target(assignClause(i))] = v
		}
		if !ok {
			continue
		}
		for i := range rule.Where {
			pass, err := cr.Holds(whereClause(i), c.frame)
			if err != nil || !pass {
				ok = false
				break
			}
		}
		if ok {
			sat = append(sat, c)
		}
	}
	return sat, nil
}

func (d *diag) joinRest(w World, s *solver, trigIdx int, evalNode string, c candidate, next int, asOf ndlog.Stamp) ([]candidate, error) {
	rule, cr := s.rule, s.cr
	if next == len(rule.Body) {
		return []candidate{c}, nil
	}
	if next == trigIdx {
		return d.joinRest(w, s, trigIdx, evalNode, c, next+1, asOf)
	}
	atom := rule.Body[next]
	decl := d.prog.Decl(atom.Table)
	if decl == nil {
		return nil, failf(NoProgress, "unknown table %s", atom.Table)
	}
	if decl.Event {
		return nil, nil // non-trigger event atoms never join
	}
	node, known, err := cr.Locate(locClause(next), evalNode, c.frame)
	if err != nil {
		return nil, failf(NoProgress, "%v", err)
	}
	var nodes []string
	if known {
		nodes = []string{node}
	} else {
		nodes = w.Nodes()
	}
	var out []candidate
	f := make([]ndlog.Value, len(c.frame)) // unified into per row; copied out on a match
	for _, nn := range nodes {
		for _, t := range d.tuplesAtWithPending(w, nn, atom.Table, asOf) {
			copy(f, c.frame)
			if !cr.Unify(next, f, s.ss.loc(nn), t) {
				continue
			}
			c2 := candidate{frame: slices.Clone(f), body: make([]ndlog.At, len(c.body))}
			copy(c2.body, c.body)
			c2.body[next] = ndlog.At{Node: nn, Tuple: t}
			rest, err := d.joinRest(w, s, trigIdx, evalNode, c2, next+1, asOf)
			if err != nil {
				return nil, err
			}
			out = append(out, rest...)
		}
	}
	return out, nil
}

// tuplesAtWithPending lists a table's tuples at a time, with pending
// inserts included and pending deletes excluded.
func (d *diag) tuplesAtWithPending(w World, node, table string, asOf ndlog.Stamp) []ndlog.Tuple {
	tuples := w.TuplesMatchingAt(node, table, asOf, nil)
	skip := map[string]bool{}
	for _, p := range append(append([]replay.Change(nil), d.applied...), d.pending...) {
		if p.Node != node || p.Tuple.Table != table {
			continue
		}
		if p.Insert {
			dup := false
			for _, t := range tuples {
				if t.Equal(p.Tuple) {
					dup = true
					break
				}
			}
			if !dup {
				tuples = append(tuples, p.Tuple)
			}
		} else {
			skip[p.Tuple.Key()] = true
		}
	}
	if len(skip) == 0 {
		return tuples
	}
	out := tuples[:0]
	for _, t := range tuples {
		if !skip[t.Key()] {
			out = append(out, t)
		}
	}
	return out
}

// pickArgMax selects the winning candidate exactly as the engine does:
// maximal argmax variable, ties broken on the canonical binding key.
func pickArgMax(cands []candidate, cr *ndlog.CompiledRule) candidate {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cr.Beats(cands[i].frame, cands[best].frame) {
			best = i
		}
	}
	return cands[best]
}

// sortChanges orders changes deterministically for presentation: by tick,
// node, then canonical tuple key (encoded once per change, not per
// comparison).
func sortChanges(cs []replay.Change) {
	keys := make([]string, len(cs))
	for i, c := range cs {
		keys[i] = c.Tuple.Key()
	}
	sort.Sort(changeOrder{cs, keys})
}

type changeOrder struct {
	cs   []replay.Change
	keys []string
}

func (o changeOrder) Len() int { return len(o.cs) }
func (o changeOrder) Swap(i, j int) {
	o.cs[i], o.cs[j] = o.cs[j], o.cs[i]
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
}
func (o changeOrder) Less(i, j int) bool {
	if o.cs[i].Tick != o.cs[j].Tick {
		return o.cs[i].Tick < o.cs[j].Tick
	}
	if o.cs[i].Node != o.cs[j].Node {
		return o.cs[i].Node < o.cs[j].Node
	}
	return o.keys[i] < o.keys[j]
}
