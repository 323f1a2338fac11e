package ndlog

// Repair of out-of-order work.
//
// Evaluation is one stamp-ordered work heap (engine.go), and drain keeps a
// high-water mark: the newest stamp it has processed. Work stamped before
// the mark lands in a past the engine has already evaluated — a
// counterfactual change scheduled on a fork of a settled base run (§4.6:
// every replay trial), or an event logged late on a live engine — and that
// past must come out as if the work had been there all along. A few rules
// of evaluation repair it, semi-naively:
//
//   - A state row appearing before the mark triggers its rules normally
//     (the join probes the same hash indexes, as-of the row's stamp), and
//     then RE-FIRES every later occurrence of a sibling body atom with the
//     new row pinned at its position — exactly the firings the evaluated
//     suffix would have produced had the row been present. The as-of join
//     makes the max-stamp element of each binding its only effective
//     trigger, so every new binding fires exactly once.
//   - A retraction cascades the underivation through support counting to
//     every derivation that transitively depended on the row (DRed's delete
//     phase — the re-derive phase is subsumed by support counting for plain
//     rules); one before the mark also erases the event occurrences derived
//     from the row after it (eraseEventConsumers), since events have no rows
//     for the cascade to reach.
//   - A base insertion of a tuple evaluated as inserted later backdates the
//     row (cfBackdateRow).
//   - Argmax rules need genuine re-derivation: when a retraction before the
//     mark removes an argmax winner whose trigger fired after it, or a new
//     row displaces a winner, the trigger is re-evaluated in full
//     (reevalArgMax) and the head flipped to the new winner.
//   - count() aggregates extend their delta chains from the end-state
//     group exactly as a timely firing would, since contributor events are
//     append-only; an erased contributor steps its group down by one.
//
// In-order work has nothing newer to repair: every rule above looks for
// what happened after the work's stamp, and nothing has. So re-fire,
// gated erasure and argmax re-evaluation are skipped for it, and for it
// the engine is plain forward evaluation. A fork of a settled base run
// that schedules a change set and runs ends in the state a fresh engine
// reaches with the changes scheduled among the log before one Run (the
// law tests in internal/scenarios); the oracle, which evaluates the log
// from scratch and then schedules the same changes, takes the same path
// as the fork.

import (
	"fmt"
	"sort"

	"repro/internal/cow"
)

// eventOcc records one event-tuple occurrence on a table, so out-of-order
// work can re-enumerate event triggers that already fired. Appended in
// processing order; occSorted tracks the stamp-sorted prefix for binary
// search.
type eventOcc struct {
	tuple Tuple
	at    Stamp
}

// occAppend records an event occurrence, maintaining the sorted-prefix
// length (in-order appends are stamp-monotone; out-of-order appends land
// in a short unsorted tail). On a forked table the occs backing is shared
// with the parent, so appends go to the private occsTail — a reallocating
// append of the whole log would cost O(#occurrences) per counterfactual
// trial.
func (tb *table) occAppend(t Tuple, st Stamp) {
	if tb.occsShared {
		tb.occsTail = append(tb.occsTail, eventOcc{tuple: t, at: st})
		return
	}
	if tb.occSorted == len(tb.occs) &&
		(tb.occSorted == 0 || !st.Before(tb.occs[tb.occSorted-1].at)) {
		tb.occSorted++
	}
	tb.occs = append(tb.occs, eventOcc{tuple: t, at: st})
}

// noteOrderAppend maintains the stamp-sorted prefix length of tb.parts();
// called just after a row is appended.
func (tb *table) noteOrderAppend() {
	i := tb.size() - 1
	if tb.orderSorted == i &&
		(i == 0 || !tb.row(i).appearedAt.Before(tb.row(i-1).appearedAt)) {
		tb.orderSorted++
	}
}

// cfMarkDirty records that a write after the engine settled touched a
// table on a node — tb is the engine's writable copy; Stats.DirtyTables
// reports how many distinct (node, table) pairs a change set perturbed.
func (e *Engine) cfMarkDirty(tb *table) {
	if e.settled && !tb.cfDirty {
		tb.cfDirty = true
		e.stats.DirtyTables++
	}
}

// refireForRow re-fires the rules a row appearing in the evaluated past
// participates in, against every occurrence of a sibling body atom later
// than the row's appearance. The row is pinned at its atom position and
// the later occurrence drives the join as the delta, so each re-firing
// reproduces exactly the firing the evaluation would have performed had
// the row existed — at the occurrence's own stamp, joining state as of
// that stamp. Occurrences at or before the row's appearance need no
// re-fire: the row's own appearance already triggered those rules
// (class-a), and the as-of join covers earlier state. A non-zero until
// bounds the window from above: a backdated row (cfBackdateRow) was
// present from its original appearance on, so occurrences past it fired
// with the row already.
func (e *Engine) refireForRow(nodeName string, rw *row, s, until Stamp) error {
	for _, ref := range e.compiled.triggers[rw.tuple.Table] {
		r := ref.rule
		if r.countSlot >= 0 {
			continue // aggregate bodies are single event atoms; a state row never matches
		}
		// The pinned atom must actually unify with the row before any
		// enumeration (cheap pre-filter; the pinned join re-checks).
		if !r.body[ref.atom].quickMatch(e.scratch().join.blank(len(r.vars)), rw.tuple) {
			continue
		}
		for q := range r.body {
			if q == ref.atom {
				continue
			}
			if err := e.refireAtomOccurrences(r, ref.atom, nodeName, rw, q, s, until); err != nil {
				return err
			}
		}
	}
	return nil
}

// refireAtomOccurrences enumerates the occurrences of body atom q (events
// from the occurrence log, state rows from the appearance order) with
// stamps after s — and, when until is non-zero, before until — firing rule
// r for each with the pinned row at atom p. Argmax rules re-evaluate the
// full trigger instead of a pinned fire.
func (e *Engine) refireAtomOccurrences(r *CompiledRule, p int, pinNode string, pin *row, q int, s, until Stamp) error {
	atom := &r.body[q]
	decl := atom.decl
	if decl == nil {
		return fmt.Errorf("ndlog: rule %s: unknown table %s", r.name, atom.table)
	}
	for _, n := range e.nodeOrder {
		nn := n.name
		tb := e.table(nn, atom.table)
		if tb == nil {
			continue
		}
		if decl.Event {
			fire := func(o eventOcc) error {
				if !s.Before(o.at) || e.killedOccs.Get(o.at.Seq) {
					return nil
				}
				if until != (Stamp{}) && !o.at.Before(until) {
					return nil
				}
				return e.refireAt(r, p, pinNode, pin, q, nn, o.tuple, e.arena.key(o.tuple), o.at)
			}
			// Sorted prefix by binary search, then the short unsorted
			// tail, then the fork-private tail.
			i := sort.Search(tb.occSorted, func(i int) bool { return s.Before(tb.occs[i].at) })
			for ; i < len(tb.occs); i++ {
				if err := fire(tb.occs[i]); err != nil {
					return err
				}
			}
			for _, o := range tb.occsTail {
				if err := fire(o); err != nil {
					return err
				}
			}
			continue
		}
		i := sort.Search(tb.orderSorted, func(i int) bool { return s.Before(tb.row(i).appearedAt) })
		for ; i < tb.size(); i++ {
			o := tb.row(i)
			// Dead rows need no re-fire: a firing at their appearance would
			// have been retracted when they died, or the row was killed by
			// the repair itself and in a timely run would never have
			// appeared.
			if o.dead || !s.Before(o.appearedAt) {
				continue
			}
			if until != (Stamp{}) && !o.appearedAt.Before(until) {
				continue
			}
			if err := e.refireAt(r, p, pinNode, pin, q, nn, o.tuple, o.key, o.appearedAt); err != nil {
				return err
			}
		}
	}
	return nil
}

// refireAt fires rule r once for a single re-enumerated trigger
// occurrence: a pinned fire for plain rules, a full trigger
// re-evaluation for argmax rules.
func (e *Engine) refireAt(r *CompiledRule, p int, pinNode string, pin *row, q int, nodeName string, delta Tuple, key string, st Stamp) error {
	if r.argMaxSlot >= 0 {
		cause := keyedAt(pinNode, pin.tuple, pin.key, pin.appearedAt)
		return e.reevalArgMax(r, q, nodeName, delta, key, st, cause)
	}
	rs := e.repairing()
	rs.pin, rs.pinAtom, rs.pinNode = pin, p, pinNode
	err := e.fireRule(r, q, nodeName, delta, key, st)
	rs.pin = nil
	return err
}

// repairState is what a repair in progress keeps between the calls that
// make it. Few engines ever repair — a live engine fed in order never
// does — so it is made on an engine's first repair (repairing).
type repairState struct {
	// reevals queues argmax trigger re-evaluations (drainCFReevals).
	reevals []cfReeval
	// pin pins one counterfactual row at body atom pinAtom (on node
	// pinNode) during a delta re-fire, so the join matches only that row at
	// the pinned position (joinFrom).
	pin     *row
	pinAtom int
	pinNode string
	// erasing is the erase cascade's scratch stack: each eraseOccurrence
	// pushes the dependents of the occurrence it erases and pops them when
	// done. It is a snapshot because retracting a dependent splices the
	// occurrence's live list (unindexSupport), and it is read by index
	// because the erasures that retraction cascades into push onto it too.
	erasing []dependentRef
}

// repairing returns the engine's repair state, making it on first use.
func (e *Engine) repairing() *repairState {
	if e.repair == nil {
		e.repair = new(repairState)
	}
	return e.repair
}

// pinned returns the row a delta re-fire in progress pins at body atom i,
// and its node; nil when none is.
func (e *Engine) pinned(i int) (*row, string) {
	if rs := e.repair; rs != nil && rs.pin != nil && rs.pinAtom == i {
		return rs.pin, rs.pinNode
	}
	return nil, ""
}

// cfBackdateRow moves an already-live row's appearance back to an
// out-of-order base insertion's stamp: the evaluation inserted the same
// tuple later, so in the timely run the row exists from st on. Three
// consequences follow. The row's live history interval opens at st, and
// the observer is told the row appears there: derivations from now on name
// that appearance, so a recorder must have it. Trigger occurrences inside
// the widened window (st, old appearance) are re-fired with the row pinned
// — occurrences past the old appearance fired with the row already. And on
// a keyed table the generation the later insert displaced gives up the
// window too: its death moves back to st, and the event firings it fed in
// between are erased, because the timely run had replaced it before they
// triggered (the §4.9 intra-tick race: the corrected config arrived after
// the probe; inserting it a tick earlier must both erase the stale answer
// and derive the correct one).
func (e *Engine) cfBackdateRow(nodeName string, tb *table, decl *TableDecl, r *row, st Stamp) error {
	old := r.appearedAt
	tb.histBackdateFrom(&e.arena, r.key, old.Seq, st)
	r = e.backdateRow(tb, r, st)
	e.obs.OnAppear(keyedAt(nodeName, r.tuple, r.key, st), 0)
	// Backdating can break the appearance-order sorted prefix at the
	// row's position; shrink it so binary searches stay sound.
	if i := int(r.pos); i < tb.orderSorted && i > 0 && st.Before(tb.row(i-1).appearedAt) {
		tb.orderSorted = i
	}
	e.cfMarkDirty(tb)
	if len(decl.Key) > 0 {
		pk := primaryKey(decl, r.tuple)
		cause := keyedAt(nodeName, r.tuple, r.key, st)
		for i, n := 0, tb.size(); i < n; i++ {
			// By position: an erasure below may copy the row a slot holds.
			o := tb.row(i)
			if o == r || !o.dead || o.key == r.key || primaryKey(decl, o.tuple) != pk {
				continue
			}
			// The displaced generation is the one that died exactly when r
			// appeared and was live at st; anything between st and the old
			// appearance is a multi-generation interleave we leave as-is.
			for _, iv := range tb.hist.Get(o.key) {
				if iv.Open || iv.From.Seq != o.appearedAt.Seq || iv.To.Seq != old.Seq || st.Before(iv.From) {
					continue
				}
				tb.histCloseAt(&e.arena, o.key, o.appearedAt.Seq, st)
				e.eraseEventConsumers(TupleRef{Node: nodeName, Key: o.key}, o.appearedAt.Seq, cause, st, true)
				break
			}
		}
	}
	return e.refireForRow(nodeName, r, st, old)
}

// evConsumer records one event-head derivation: which occurrence it
// produced (head, deriveID) and which body elements fed it. Derived events
// have no rows, so the support-counting cascade cannot retract them;
// repair erases their occurrences through these records instead (DRed's
// delete phase, extended to events).
type evConsumer struct {
	deriveID int64
	rule     string
	head     KeyedAt // the occurrence, at its delivery stamp
	// The body element that triggered the firing: its atom index, tuple and
	// stamp (body[trigAtom] holds its node and key).
	trigAtom  int
	trigTuple Tuple
	trigAt    Stamp
	body      []BodyRef
}

// registerEventDeriv indexes an event-head derivation under each of its
// body elements, at delivery time (process). The record is write-once, so
// one slot of the arena is shared by all its refs; the body slice is the
// derivation's (and the support's), likewise shared. A fork's link holds
// only the consumers the fork itself registers (a tail, started as a
// window of the arena): the base chain's frozen lists are never copied —
// eraseEventConsumers reads the links in turn, which is rare (erasure)
// while registration is per-derivation hot.
func (e *Engine) registerEventDeriv(d *Derivation) {
	c := e.arena.evs.one()
	*c = evConsumer{
		deriveID:  d.ID,
		rule:      d.Rule,
		head:      d.Head,
		trigAtom:  d.Trigger,
		trigTuple: d.Trig.Tuple,
		trigAt:    d.Trig.Stamp,
		body:      d.Refs,
	}
	for _, b := range d.Refs {
		cow.Append(&e.evDeps, b.TupleRef(), func([]*evConsumer) []*evConsumer { return e.arena.evLists.take(0, 1) }, c)
	}
}

// eraseEventConsumers erases the event occurrences derived from a body
// element that an out-of-order retraction just removed. With gate set
// (the element existed until st and then died), only firings triggered
// after st are erased — earlier firings happened in the timely run too.
// Without it (the element's own occurrence was erased, so it never
// happened in the timely run), every consumer goes.
func (e *Engine) eraseEventConsumers(ref TupleRef, bodySeq uint64, cause KeyedAt, st Stamp, gate bool) {
	// Each hands over every chain link's list, root first. Lists are
	// append-only and their entries write-once, and consumers register only
	// at delivery (process), never inside this cascade, so the walk sees
	// exactly the consumers registered when it started.
	e.evDeps.Each(ref, func(cs []*evConsumer) {
		for _, c := range cs {
			match := false
			for _, b := range c.body {
				if b.Seq == bodySeq {
					match = true
					break
				}
			}
			if !match || gate && !st.Before(c.trigAt) {
				continue
			}
			e.eraseOccurrence(c, cause, st)
			if gate {
				// The body element existed at the trigger but the timely run
				// loses it by then; an argmax trigger would have fired anyway
				// and chosen the next-best winner — re-evaluate it. (Plain
				// rules need nothing: bindings over other rows were separate
				// firings and still stand. Ungated erasure needs nothing
				// either: events only join as triggers, so the erased
				// occurrence was the consumer's trigger and never happened.)
				if r := e.compiled.rules[c.rule]; r != nil && r.argMaxSlot >= 0 {
					trig := c.body[c.trigAtom]
					rs := e.repairing()
					rs.reevals = append(rs.reevals, cfReeval{
						rule: r, atom: c.trigAtom, node: trig.Node,
						tuple: c.trigTuple, key: trig.Key, st: c.trigAt,
						cause: cause,
					})
				}
			}
		}
	})
}

// eraseOccurrence erases one derived event occurrence: the timely run the
// repair reconstructs would never have fired it. The occurrence's
// zero-length history interval is removed (so Exists, ExistsEver, History,
// and TuplesAt no longer see it), the stamp is marked killed (so re-fires
// skip it and a pending delivery is dropped), an underivation is emitted,
// and the erasure cascades: count() groups it contributed to are
// decremented, state rows it supported are retracted, and event
// occurrences derived from it are erased in turn.
func (e *Engine) eraseOccurrence(c *evConsumer, cause KeyedAt, st Stamp) {
	occ := c.head
	if e.killedOccs.Get(occ.Stamp.Seq) {
		return
	}
	e.killedOccs.Set(occ.Stamp.Seq, true)
	decl := e.prog.Decl(occ.Tuple.Table)
	if decl == nil {
		return
	}
	tb := e.writableTable(occ.Node, e.tableFor(occ.Node, decl))
	tb.histRemoveOcc(&e.arena, occ.Key, occ.Stamp.Seq)
	e.cfMarkDirty(tb)
	e.deriveID++
	e.obs.OnUnderive(Underivation{
		ID:       e.deriveID,
		DeriveID: c.deriveID,
		Rule:     c.rule,
		Node:     occ.Node,
		Head:     keyedAt(occ.Node, occ.Tuple, occ.Key, e.nextStamp(st.T)),
		Cause:    cause,
	})
	// count() groups the occurrence contributed to shrink by one.
	for _, ref := range e.compiled.triggers[occ.Tuple.Table] {
		if ref.rule.countSlot >= 0 {
			e.cfAggregateErase(ref.rule, occ, st)
		}
	}
	// State rows supported by the occurrence lose that support. Aggregate
	// heads are skipped: the group decrement above already replaced them.
	occRef := occ.TupleRef()
	if deps := e.dependents.Get(occRef); len(deps) > 0 {
		rs := e.repairing()
		base := len(rs.erasing)
		rs.erasing = append(rs.erasing, deps...)
		for i, end := base, len(rs.erasing); i < end; i++ {
			e.retractSupportIf(rs.erasing[i], occ.Stamp.Seq, occ, st)
		}
		clear(rs.erasing[base:])
		rs.erasing = rs.erasing[:base]
	}
	// Event occurrences derived from this one never happened either.
	e.eraseEventConsumers(occRef, occ.Stamp.Seq, occ, st, false)
}

// retractSupportIf retracts one dependent's support only if that support
// actually contains the erased occurrence (dependent refs carry no body
// sequence, and the same node|key can occur more than once) and the
// support is not an aggregate delta (the group decrement handles those).
func (e *Engine) retractSupportIf(dep dependentRef, bodySeq uint64, cause KeyedAt, st Stamp) {
	tb := e.liveTable(dep.node, tableOfKey(dep.key), dep.key)
	if tb == nil {
		return
	}
	for _, s := range tb.liveRow(dep.key).supports {
		if s.deriveID != dep.deriveID {
			continue
		}
		if ru := e.prog.Rule(s.rule); ru != nil && ru.CountVar != "" {
			return
		}
		for _, b := range s.body {
			if b.Seq == bodySeq {
				e.dropSupport(dep.node, tb, dep.key, dep.deriveID, cause, st)
				return
			}
		}
		return
	}
}

// cfAggregateErase removes one erased contributor from a counting rule's
// group: the binding the occurrence fired with is recovered and the group
// stepped down by one (aggregateStep). Invariant breaks (the group is
// empty, the head fails to evaluate or to appear) count as
// AggRetractMisses, which the differential suites assert stay zero.
func (e *Engine) cfAggregateErase(r *CompiledRule, occ KeyedAt, st Stamp) {
	sat, mark, err := e.satBindings(r, 0, occ.Node, occ.Tuple, occ.Key, occ.Stamp)
	defer e.work.join.release(mark)
	if err == nil && len(sat) == 0 {
		return // the occurrence never contributed (constraint filtered it)
	}
	if err == nil {
		err = e.aggregateStep(r, occ.Node, sat[0], st, -1)
	}
	if err != nil {
		e.stats.AggRetractMisses++
	}
}

// amTrigger identifies an argmax trigger occurrence: the rule plus the
// node and stamp sequence of the triggering element (stamp sequences are
// unique within an engine's timeline, so no tuple key is needed). Every
// binding a trigger produces shares it, so it keys "the derivation this
// trigger currently supports".
type amTrigger struct {
	rule, node string
	seq        uint64
}

// amEntry records the argmax winner currently derived for one trigger
// occurrence: the head it derived (for retraction when out-of-order work
// flips the winner) and the winning binding's canonical key (to detect
// that the winner is unchanged). Entries are slots of the arena and
// write-once, like evConsumer; updates store a fresh entry. None is
// deleted: a stale one (its derivation has since been retracted) is
// detected at use — the retraction is skipped and the binding-key
// comparison still answers "did the winner change".
type amEntry struct {
	ref       dependentRef // the head's node, key and derivation
	bk        string       // canonical key of the winning binding
	eventHead bool         // the head is an occurrence, not a row
	headTuple Tuple        // event heads: the derived occurrence, for erasure
	headAt    Stamp        // event heads: its delivery stamp
}

// amEntryFor builds the winner entry for a binding from the work item
// derive just queued for its head. A trigger is the element carrying its
// binding's max stamp (rules fire in processing order), so fireRule and
// reevalArgMax key the entry by the delta that fired the rule.
func (e *Engine) amEntryFor(r *CompiledRule, win binding, it *workItem) *amEntry {
	ent := e.arena.ams.one()
	*ent = amEntry{
		bk:  e.arena.text(func(b []byte) []byte { return r.appendBindingKey(b, win.frame) }),
		ref: dependentRef{node: it.node, key: it.deriv.Head.Key, deriveID: it.deriv.ID},
	}
	if d := e.prog.Decl(it.tuple.Table); d != nil && d.Event {
		// Event heads have no row to retract; record the occurrence so a
		// displaced winner can be erased instead.
		ent.eventHead = true
		ent.headTuple = it.tuple
		ent.headAt = it.stamp
	}
	return ent
}

// cfReeval is one queued argmax trigger re-evaluation, recorded when an
// out-of-order retraction removes an argmax winner whose trigger fired
// after the retraction point.
type cfReeval struct {
	rule  *CompiledRule
	atom  int
	node  string
	tuple Tuple
	key   string // tuple's canonical key
	st    Stamp
	cause KeyedAt
}

// noteCFRetraction is called from dropSupport for a retraction before the
// high-water mark: if the retracted support belonged to an argmax rule and
// its trigger fired after the retraction stamp, the trigger must be
// re-evaluated — in a timely run the firing would have happened without
// the vanished element and chosen a different winner. Plain rules need
// nothing (support counting already retracted exactly the bindings that
// contained the element), and triggers at or before the retraction match
// timely behavior as-is (fired, then retracted, never re-fired).
func (e *Engine) noteCFRetraction(sup support, st Stamp) {
	if sup.rule == "" {
		return
	}
	r := e.compiled.rules[sup.rule]
	if r == nil || r.argMaxSlot < 0 {
		return
	}
	atom, tuple, trig, ok := e.triggerOf(r.rule, sup)
	if !ok || !st.Before(trig) {
		return
	}
	node, key := sup.body[atom].Node, sup.body[atom].Key
	rs := e.repairing()
	rs.reevals = append(rs.reevals, cfReeval{
		rule: r, atom: atom, node: node, tuple: tuple, key: key, st: trig,
		cause: keyedAt(node, tuple, key, st),
	})
}

// triggerOf reconstructs the trigger occurrence of a support: the
// max-stamp body element. Element stamps come from the interval
// histories (the bodyRef seq identifies the appearance interval), event
// tuples from the occurrence log, state tuples from the appearance
// order. A state trigger that has since died is dropped (ok=false): its
// firings were retracted with it and a timely run would not re-fire.
func (e *Engine) triggerOf(r *Rule, sup support) (atom int, tuple Tuple, st Stamp, ok bool) {
	best := -1
	var bestStamp Stamp
	for i, b := range sup.body {
		if i >= len(r.Body) {
			return 0, Tuple{}, Stamp{}, false
		}
		tb := e.table(b.Node, r.Body[i].Table)
		if tb == nil {
			return 0, Tuple{}, Stamp{}, false
		}
		iv := openedAt(tb.hist.Get(b.Key), b.Seq) // read only: may be a frozen base's
		if iv == nil {
			return 0, Tuple{}, Stamp{}, false
		}
		if best < 0 || bestStamp.Before(iv.From) {
			best, bestStamp = i, iv.From
		}
	}
	if best < 0 {
		return 0, Tuple{}, Stamp{}, false
	}
	bref := sup.body[best]
	tb := e.table(bref.Node, r.Body[best].Table)
	if d := e.prog.Decl(r.Body[best].Table); d != nil && d.Event {
		t, ok := occAtStamp(tb, bestStamp)
		if !ok {
			return 0, Tuple{}, Stamp{}, false
		}
		return best, t, bestStamp, true
	}
	rw, ok2 := rowAtStamp(tb, bestStamp)
	if !ok2 || rw.dead {
		return 0, Tuple{}, Stamp{}, false
	}
	return best, rw.tuple, bestStamp, true
}

// occAtStamp finds the event occurrence with the given stamp (binary
// search over the sorted prefix, linear over the tail).
func occAtStamp(tb *table, st Stamp) (Tuple, bool) {
	i := sort.Search(tb.occSorted, func(i int) bool { return !tb.occs[i].at.Before(st) })
	if i < tb.occSorted && tb.occs[i].at == st {
		return tb.occs[i].tuple, true
	}
	for j := tb.occSorted; j < len(tb.occs); j++ {
		if tb.occs[j].at == st {
			return tb.occs[j].tuple, true
		}
	}
	for _, o := range tb.occsTail {
		if o.at == st {
			return o.tuple, true
		}
	}
	return Tuple{}, false
}

// rowAtStamp finds the row that appeared at the given stamp.
func rowAtStamp(tb *table, st Stamp) (*row, bool) {
	i := sort.Search(tb.orderSorted, func(i int) bool { return !tb.row(i).appearedAt.Before(st) })
	if i < tb.orderSorted && tb.row(i).appearedAt == st {
		return tb.row(i), true
	}
	for j := tb.orderSorted; j < tb.size(); j++ {
		if tb.row(j).appearedAt == st {
			return tb.row(j), true
		}
	}
	return nil, false
}

// drainCFReevals processes the queued argmax re-evaluations in
// deterministic order (trigger stamp, then rule name, then trigger key).
// A re-evaluation can cascade into further retractions and hence further
// queued re-evaluations; the loop runs to fixpoint. reevalArgMax is
// idempotent (it compares winners before acting), so duplicates across
// batches are harmless.
func (e *Engine) drainCFReevals() error {
	for e.repair != nil && len(e.repair.reevals) > 0 {
		batch := e.repair.reevals
		e.repair.reevals = nil
		sort.Slice(batch, func(i, j int) bool {
			if batch[i].st != batch[j].st {
				return batch[i].st.Before(batch[j].st)
			}
			if ri, rj := batch[i].rule.name, batch[j].rule.name; ri != rj {
				return ri < rj
			}
			return batch[i].key < batch[j].key
		})
		for _, rq := range batch {
			if err := e.reevalArgMax(rq.rule, rq.atom, rq.node, rq.tuple, rq.key, rq.st, rq.cause); err != nil {
				return err
			}
		}
	}
	return nil
}

// reevalArgMax re-evaluates one argmax trigger occurrence in full, as of
// its own stamp, against current state — rows the repair added included,
// rows it killed excluded. If the winner differs from the one the trigger
// currently supports, the old head is retracted (cascading) and the new
// winner derived. Idempotent: an unchanged winner is a no-op.
func (e *Engine) reevalArgMax(r *CompiledRule, deltaAtom int, nodeName string, delta Tuple, key string, st Stamp, cause KeyedAt) error {
	if d := e.prog.Decl(delta.Table); d != nil && d.Event && e.killedOccs.Get(st.Seq) {
		return nil // the trigger occurrence was erased after this re-eval was queued
	}
	sat, mark, err := e.satBindings(r, deltaAtom, nodeName, delta, key, st)
	defer e.work.join.release(mark)
	if err != nil {
		return err
	}
	if len(sat) == 0 {
		// No satisfying binding survives the changes; whatever the trigger
		// derived has been (or is being) retracted by the support cascade.
		return nil
	}
	win := sat[0]
	trig := amTrigger{rule: r.name, node: nodeName, seq: st.Seq}
	cur := e.amDeriv.Get(trig)
	if cur != nil {
		kb := getKeyBuf()
		bk := r.appendBindingKey(kb.b[:0], win.frame)
		same := cur.bk == string(bk)
		putKeyBuf(kb, bk)
		if same {
			return nil // winner unchanged; the evaluated derivation stands (or fell with its own supports)
		}
	}
	if cur != nil && !cur.eventHead {
		// Retract the displaced winner's head. The support may already be
		// gone (retracted by a cascade); retractSupport handles that.
		e.retractSupport(cur.ref, cause, st)
	}
	if cur != nil && cur.eventHead && cur.headTuple.Table != "" {
		// A displaced event-head winner has no row; erase its occurrence
		// (idempotent — a cascade may already have erased it).
		e.eraseOccurrence(&evConsumer{
			deriveID: cur.ref.deriveID,
			rule:     r.name,
			head:     keyedAt(cur.ref.node, cur.headTuple, cur.ref.key, cur.headAt),
		}, cause, st)
	}
	it, err := e.derive(r, nodeName, win, deltaAtom, st)
	if err != nil {
		return err
	}
	e.amDeriv.Set(trig, e.amEntryFor(r, win, it))
	return nil
}
