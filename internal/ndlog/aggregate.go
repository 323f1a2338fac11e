package ndlog

import (
	"fmt"
	"sort"
)

// Aggregation support: a rule may bind a variable with `N := count()`,
// turning it into an incremental counting rule. Each triggering event
// increments the group's count, underives the previous head tuple, and
// derives a new head. The provenance of an aggregate is the full set of
// its contributing events, but the engine records it as a delta chain:
// each derivation carries only the new contributor plus a link to the
// previous head derivation (Derivation.AggPrev/AggCount), and the
// provenance layer folds the chain into the full contributor list on
// demand. Recording is therefore O(1) per update and O(k) per group,
// where the old full-list scheme was O(k) and O(k²).
//
// Aggregate rules are restricted to a single event-table body atom with a
// local head: this covers the MapReduce reduce phase (WordCount) while
// keeping evaluation deterministic.

type aggGroup struct {
	count   int64
	prevKey string // canonical key of the previous head tuple (to be underived)
	prevID  int64  // derivation id of the previous head
	prevSet bool
}

// validateAggregate checks the restrictions on counting rules, reporting
// the first violation as an error.
func validateAggregate(r *Rule, p *Program) error {
	return firstError(analyzeAggregate(p, r))
}

// analyzeAggregate reports every counting-rule restriction violated by
// the rule as a CodeAggregate diagnostic.
func analyzeAggregate(p *Program, r *Rule) []Diag {
	if r.CountVar == "" {
		return nil
	}
	var ds []Diag
	bad := func(format string, args ...interface{}) {
		ds = append(ds, Diag{
			Pos:      r.Pos,
			Severity: Error,
			Code:     CodeAggregate,
			Msg:      fmt.Sprintf("rule %s: ", r.Name) + fmt.Sprintf(format, args...),
		})
	}
	if r.ArgMax != "" {
		bad("count() and argmax cannot be combined")
	}
	if len(r.Body) != 1 {
		bad("counting rules must have exactly one body atom")
		return ds
	}
	d := p.Decl(r.Body[0].Table)
	if d == nil || !d.Event {
		bad("counting rules must be triggered by an event table")
	}
	hd := p.Decl(r.Head.Table)
	if hd != nil && hd.Event {
		bad("counting rules must derive state, not events")
	}
	if r.Head.Loc != nil {
		// The head location must coincide with the body atom's location
		// (local derivation): either the same variable or the same
		// constant node name.
		local := false
		if r.Body[0].Loc != nil {
			switch hl := r.Head.Loc.(type) {
			case Var:
				bl, ok := r.Body[0].Loc.(Var)
				local = ok && bl == hl
			case Const:
				bl, ok := r.Body[0].Loc.(Const)
				local = ok && bl.V == hl.V
			}
		}
		if !local {
			bad("counting rules must derive locally")
		}
	}
	uses := false
	for _, a := range r.Head.Args {
		for _, v := range FreeVars(a) {
			if v == r.CountVar {
				uses = true
			}
		}
	}
	if !uses {
		bad("head does not use count variable %s", r.CountVar)
	}
	return ds
}

// groupVarsOf lists, sorted, the variables that name a counting rule's
// group: every head-referenced variable except the count variable.
func groupVarsOf(r *Rule) []string {
	vars := map[string]bool{}
	for _, a := range r.Head.Args {
		for _, v := range FreeVars(a) {
			if v != r.CountVar {
				vars[v] = true
			}
		}
	}
	if r.Head.Loc != nil {
		for _, v := range FreeVars(r.Head.Loc) {
			vars[v] = true
		}
	}
	names := make([]string, 0, len(vars))
	for v := range vars {
		names = append(names, v)
	}
	sort.Strings(names)
	return names
}

// groupKey appends to key the aggregation group of a binding: the values of
// the rule's group variables (listed once, when the rule was compiled).
func (e *Engine) groupKey(key []byte, r *CompiledRule, nodeName string, f []Value) []byte {
	key = append(key, r.name...)
	key = append(key, '@')
	key = append(key, nodeName...)
	for _, slot := range r.group {
		key = append(key, '|')
		key = append(key, r.vars[slot]...)
		key = append(key, '=')
		if val := f[slot]; val != nil {
			key = val.appendKey(key)
		} else {
			// Distinct sentinel for an unbound variable: every appendKey
			// encoding starts with a kind byte ('i', 's', 'b', 'a', 'p',
			// '#'), so '?' cannot collide with any bound value.
			key = append(key, '?')
		}
	}
	return key
}

// aggregateStep moves a counting rule's group by one contributor: sign +1
// when binding b's event fires the rule, -1 when the counterfactual phase
// erased that event's occurrence (delta.go). The previous head is retracted
// and a head carrying the new count derived — a delta whose body is the one
// contributor, AggPrev linking it to the previous head's derivation and
// AggRemove marking a removal so provenance folds subtract it (see the
// package comment above). A group stepped down to zero just loses its head.
func (e *Engine) aggregateStep(r *CompiledRule, nodeName string, b binding, st Stamp, sign int64) error {
	// Resolve the head location and evaluate the head against the new
	// count before touching any group state: a failed step must leave the
	// group as it was.
	destNode, known, err := r.headLoc.resolve(nodeName, b.frame)
	if err != nil || !known {
		return fmt.Errorf("ndlog: rule %s: unresolved aggregate head location: %v", r.name, err)
	}
	kb := getKeyBuf()
	gk := e.groupKey(kb.b[:0], r, nodeName, b.frame)
	g := e.aggGroupFor(gk)
	putKeyBuf(kb, gk)
	if sign < 0 && (g.count == 0 || !g.prevSet) {
		return fmt.Errorf("ndlog: rule %s: no aggregate head to decrement", r.name)
	}
	b.frame[r.countSlot] = Int(g.count + sign)
	head, err := r.evalHead(&e.arena, b.frame)
	if err != nil {
		return fmt.Errorf("ndlog: rule %s head: %v", r.name, err)
	}
	if g.count+sign != 0 { // the step derives a head
		if err := e.countDerivation(r.name, nodeName); err != nil {
			return err
		}
	}
	g.count += sign

	// Retract the previous count tuple for this group.
	var prevID int64
	if g.prevSet {
		prevID = g.prevID
		e.retractDerived(destNode, head.Table, g.prevKey, g.prevID, KeyedAt{At: b.body[0], Key: b.refs[0].Key}, st)
	}
	if g.count == 0 {
		g.prevKey, g.prevID, g.prevSet = "", 0, false
		return nil
	}

	headKey := e.arena.key(head)
	e.deriveID++
	d := &Derivation{
		ID:        e.deriveID,
		Rule:      r.name,
		Node:      nodeName,
		Trig:      b.body[0],
		Refs:      b.refs[:1],
		Trigger:   0,
		AggPrev:   prevID,
		AggCount:  g.count,
		AggRemove: sign < 0,
	}
	hst := e.nextStamp(st.T)
	d.Head = keyedAt(destNode, head, headKey, hst)
	g.prevKey, g.prevID, g.prevSet = headKey, d.ID, true
	e.obs.OnDerive(*d)
	return e.appear(destNode, head, headKey, hst, d)
}
