package ndlog

import (
	"fmt"
	"slices"
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

// aggGroup is a count() group: its count and, while that is not 0, its
// head's canonical key and derivation id (the head the next link retracts).
type aggGroup struct {
	count   int64
	prevKey string
	prevID  int64
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

// aggregateStep links the event of binding b, which fired counting rule r
// at st, into its group's delta chain: the previous head is retracted and a
// head carrying the count one up derived, a delta whose body is the one
// contributor (see the package comment above). Links are made in their
// contributors' stamp order: one stamped before the group's last (repair,
// delta.go) first cuts the chain back to it (cutChain), so a link folds only
// what existed when it was made.
func (e *Engine) aggregateStep(r *CompiledRule, nodeName string, b binding, st Stamp) error {
	destNode, g, err := e.aggGroupOf(r, nodeName, b.frame)
	if err != nil {
		return err
	}
	cause := KeyedAt{At: b.body[0], Key: b.refs[0].Key}
	if h, sup := e.aggHead(destNode, r, g); h != nil && st.Before(linkStamp(h, sup)) {
		e.cutChain(r, destNode, g, b.frame, st, cause, st)
	}
	b.frame[r.countSlot] = Int(g.count + 1)
	head, err := r.evalHead(&e.arena, b.frame)
	if err != nil {
		return fmt.Errorf("ndlog: rule %s head: %v", r.name, err)
	}
	if err := e.countDerivation(r.name, nodeName); err != nil {
		return err
	}
	if g.count > 0 {
		e.retractDerived(destNode, head.Table, g.prevKey, g.prevID, cause, st)
	}
	g.count++
	headKey, hst := e.arena.key(head), e.nextStamp(st.T)
	e.deriveID++
	d := &Derivation{ID: e.deriveID, Rule: r.name, Node: nodeName, Head: keyedAt(destNode, head, headKey, hst),
		Refs: b.refs[:1], Trig: b.body[0], AggPrev: g.prevID, AggCount: g.count}
	g.prevKey, g.prevID = headKey, d.ID
	e.obs.OnDerive(*d)
	return e.appear(destNode, head, headKey, hst, d)
}

// aggGroupOf returns the node of the head of a binding of counting rule r,
// and the binding's group; an unresolved location leaves the groups alone.
func (e *Engine) aggGroupOf(r *CompiledRule, nodeName string, f []Value) (string, *aggGroup, error) {
	destNode, known, err := r.headLoc.resolve(nodeName, f)
	if err != nil || !known {
		return "", nil, fmt.Errorf("ndlog: rule %s: unresolved aggregate head location: %v", r.name, err)
	}
	kb := getKeyBuf()
	gk := e.groupKey(kb.b[:0], r, nodeName, f)
	g := e.aggGroupFor(gk)
	putKeyBuf(kb, gk)
	return destNode, g, nil
}

// aggHead returns the live head row of a group of counting rule r and the
// support its link holds it by; nil for an empty group.
func (e *Engine) aggHead(node string, r *CompiledRule, g *aggGroup) (*row, support) {
	if g.count == 0 {
		return nil, support{}
	}
	h := e.table(node, r.rule.Head.Table).liveRow(g.prevKey)
	if i := slices.IndexFunc(h.supports, func(s support) bool { return s.deriveID == g.prevID }); i >= 0 {
		return h, h.supports[i]
	}
	return nil, support{}
}

// linkStamp returns the stamp of the contributor of the link holding head
// row h by sup: the head appears at its tick, and sup names its appearance.
func linkStamp(h *row, sup support) Stamp {
	return Stamp{T: h.appearedAt.T, Seq: sup.body[0].Seq}
}
