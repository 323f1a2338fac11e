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
//     from the row after it (eraseEventConsumers), since an occurrence's row
//     is born dead and the cascade reaches only live ones.
//   - A base insertion of a tuple evaluated as inserted later backdates the
//     row (cfBackdateRow).
//   - Argmax rules need genuine re-derivation: when a retraction before the
//     mark removes an argmax winner whose trigger fired after it, or a new
//     row displaces a winner, the trigger is re-evaluated in full
//     (reevalArgMax) and the head flipped to the new winner.
//   - count() chains stay in their contributors' stamp order: an erased
//     contributor, or one delivered before its group's last, cuts the
//     chain back to the link live before it and re-steps the group from
//     there (cutChain), so each link folds only what existed when it was
//     made, as in a run with the change in its log.
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
	"slices"
	"sort"
)

// noteOrderAppend maintains the stamp-sorted prefix length of tb.parts();
// called just after a row is appended.
func (tb *table) noteOrderAppend() {
	i := tb.size() - 1
	if tb.orderSorted == i &&
		(i == 0 || !tb.row(i).appearedAt.Before(tb.row(i-1).appearedAt)) {
		tb.orderSorted++
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

// refireAtomOccurrences enumerates the occurrences of body atom q — the
// rows of its table, in appearance order — with stamps after s — and, when
// until is non-zero, before until — firing rule r for each with the pinned
// row at atom p. Argmax rules re-evaluate the full trigger instead of a
// pinned fire.
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
		// The sorted prefix by binary search, then the short unsorted tail.
		i := sort.Search(tb.orderSorted, func(i int) bool { return s.Before(tb.row(i).appearedAt) })
		for ; i < tb.size(); i++ {
			o := tb.row(i)
			if !s.Before(o.appearedAt) || until != (Stamp{}) && !o.appearedAt.Before(until) {
				continue
			}
			// Dead state rows need no re-fire: a firing at their appearance
			// would have been retracted when they died, or the row was
			// killed by the repair itself and in a timely run would never
			// have appeared. An event occurrence is born dead and re-fires
			// unless it was erased.
			if decl.Event && e.killedOccs.Get(o.appearedAt.Seq) || !decl.Event && o.dead {
				continue
			}
			// An occurrence whose heads all fall outside the demand re-fires
			// nothing anyone reads.
			if e.demand != nil && !e.demand.fires(r, q, o.tuple) {
				continue
			}
			var err error
			if r.argMaxSlot >= 0 {
				err = e.reevalArgMax(r, q, keyedAt(nn, o.tuple, o.key, o.appearedAt), keyedAt(pinNode, pin.tuple, pin.key, pin.appearedAt))
			} else {
				rs := e.repairing()
				rs.pin, rs.pinAtom, rs.pinNode = pin, p, pinNode
				err = e.fireRule(r, q, nn, o.tuple, o.key, o.appearedAt)
				rs.pin = nil
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
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
// consequences follow. The row appears at st, and the observer is told so:
// derivations from now on name that appearance, so a recorder must have
// it. Trigger occurrences inside the widened window (st, old appearance)
// are re-fired with the row pinned — occurrences past the old appearance
// fired with the row already. And on a keyed table the generation the
// later insert displaced gives up the window too: its row's death moves
// back to st, and the event firings it fed in between are erased, because
// the timely run had replaced it before they triggered (the §4.9
// intra-tick race: the corrected config arrived after the probe; inserting
// it a tick earlier must both erase the stale answer and derive the
// correct one).
func (e *Engine) cfBackdateRow(nodeName string, tb *table, decl *TableDecl, r *row, st Stamp) error {
	old := r.appearedAt
	r = e.backdateRow(tb, r, st)
	e.obs.OnAppear(keyedAt(nodeName, r.tuple, r.key, st), 0)
	// Backdating can break the appearance-order sorted prefix at the
	// row's position; shrink it so binary searches stay sound.
	if i := int(r.pos); i < tb.orderSorted && i > 0 && st.Before(tb.row(i-1).appearedAt) {
		tb.orderSorted = i
	}
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
			if o.diedAt.Seq != old.Seq || st.Before(o.appearedAt) {
				continue
			}
			o = e.killRow(tb, o, st)
			e.eraseEventConsumers(o.appearedAt.Seq, cause, st, true)
		}
	}
	return e.refireForRow(nodeName, r, st, old)
}

// occDep is an entry of evDeps: a derived event occurrence, filed under
// each element of its body. The row's one support is the derivation (rule,
// ID, body refs); the entry adds only its node and which body element
// triggered the firing. An event row is never written after newRow, so the
// pointer holds in every fork. The row is born dead, out of the support
// cascade's reach; repair erases the occurrence through these entries
// (DRed's delete phase, extended to events).
type occDep struct {
	occ      *row
	node     *node
	trigAtom int32
}

// occChunk is a consumer list as a link holds it: the chunk it fills, and
// the full ones before it behind prev. A full chunk moves behind a new one
// twice its size, up to maxOccChunk, so no list is copied, and one of a
// single entry (most are) is one slot of the arena. Only the engine whose
// link holds a chunk writes it.
type occChunk struct {
	deps []occDep
	prev *occChunk
}

const maxOccChunk = 128

// each calls fn with the entries of the chunks before c and then of c.
func (c *occChunk) each(fn func(occDep)) {
	if c.prev != nil {
		c.prev.each(fn)
	}
	for _, d := range c.deps {
		fn(d)
	}
}

// trig returns the body element that triggered the occurrence's firing and
// its stamp: derive delivers a head at its trigger's tick, plus the transit
// delay if it crosses to another node.
func (d occDep) trig(delay int64) (BodyRef, Stamp) {
	b := d.occ.supports[0].body[d.trigAtom]
	tick := d.occ.appearedAt.T
	if b.Node != d.node.name {
		tick -= delay
	}
	return b, Stamp{T: tick, Seq: b.Seq}
}

// registerEventDeriv files a derived event occurrence under the appearance
// of each of its body elements, at delivery (appear). A fork's link holds
// only the chunks it fills; eraseEventConsumers reads each.
func (e *Engine) registerEventDeriv(nodeName string, occ *row, trigAtom int) {
	dep := occDep{occ: occ, node: e.nodes.Get(nodeName), trigAtom: int32(trigAtom)}
	for _, b := range occ.supports[0].body {
		c, _ := e.evDeps.Local(b.Seq)
		if len(c.deps) == cap(c.deps) {
			if c.deps != nil {
				full := e.arena.occChunks.one()
				*full, c.prev = c, full
			}
			c.deps = e.arena.occDeps.take(0, min(max(2*cap(c.deps), 1), maxOccChunk))
		}
		c.deps = append(c.deps, dep)
		e.evDeps.Set(b.Seq, c)
	}
}

// eachConsumer calls fn with the derived event occurrences filed under the
// appearance bodySeq, in filing order, root link first. Occurrences are
// filed only at delivery, never inside a repair cascade, so a walk in one
// sees exactly the entries filed when it started.
func (e *Engine) eachConsumer(bodySeq uint64, fn func(occDep)) {
	e.evDeps.Each(bodySeq, func(c occChunk) { c.each(fn) })
}

// eraseEventConsumers erases the event occurrences derived from a body
// element, the appearance bodySeq, that an out-of-order retraction just
// removed. With gate set (the element existed until st and then died),
// only firings triggered after st are erased — earlier firings happened in
// the timely run too. Without it (the element's own occurrence was erased,
// so it never happened in the timely run), every consumer goes.
func (e *Engine) eraseEventConsumers(bodySeq uint64, cause KeyedAt, st Stamp, gate bool) {
	e.eachConsumer(bodySeq, func(d occDep) {
		sup := d.occ.supports[0]
		trig, trigAt := d.trig(e.delay)
		if gate && !st.Before(trigAt) {
			return
		}
		e.eraseOccurrence(keyedAt(d.node.name, d.occ.tuple, d.occ.key, d.occ.appearedAt), sup.deriveID, sup.rule, cause, st)
		if !gate {
			return
		}
		// The body element existed at the trigger but the timely run loses
		// it by then; an argmax trigger would have fired anyway and chosen
		// the next-best winner — re-evaluate it. (Plain rules need nothing:
		// bindings over other rows were separate firings and still stand.
		// Ungated erasure needs nothing either: events only join as
		// triggers, so the erased occurrence was the consumer's trigger and
		// never happened.)
		if r := e.compiled.rules[sup.rule]; r != nil && r.argMaxSlot >= 0 {
			tb := e.table(trig.Node, r.body[d.trigAtom].table)
			rs := e.repairing()
			rs.reevals = append(rs.reevals, cfReeval{rule: r, atom: int(d.trigAtom),
				trig: keyedAt(trig.Node, tb.rowAt(tb.byKey.Get(trig.Key)).tuple, trig.Key, trigAt), cause: cause})
		}
	})
}

// eraseOccurrence erases one derived event occurrence, derived by rule
// under deriveID: the timely run the repair reconstructs would never have
// fired it. The stamp is marked killed, so the walks over its key's rows
// (Exists, ExistsEver, History) and the re-fires skip the occurrence's row
// and a pending delivery is dropped; the row itself is not written. An
// underivation is emitted, and the erasure cascades: count() groups it
// contributed to are re-stepped without it, state rows it supported are
// retracted, and event occurrences derived from it are erased in turn.
func (e *Engine) eraseOccurrence(occ KeyedAt, deriveID int64, rule string, cause KeyedAt, st Stamp) {
	if e.killedOccs.Get(occ.Stamp.Seq) || e.demand != nil && !e.demand.Covers(occ.Tuple) {
		return // erased already, or outside the demand, like all it led to
	}
	e.killedOccs.Set(occ.Stamp.Seq, true)
	e.deriveID++
	e.obs.OnUnderive(Underivation{
		ID:       e.deriveID,
		DeriveID: deriveID,
		Rule:     rule,
		Node:     occ.Node,
		Head:     keyedAt(occ.Node, occ.Tuple, occ.Key, e.nextStamp(st.T)),
		Cause:    cause,
	})
	// count() groups the occurrence contributed to are re-stepped without it.
	for _, ref := range e.compiled.triggers[occ.Tuple.Table] {
		if ref.rule.countSlot >= 0 {
			e.aggregateErase(ref.rule, occ, st)
		}
	}
	// State rows supported by the occurrence lose that support.
	if deps := e.dependents.Get(occ.TupleRef()); len(deps) > 0 {
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
	e.eraseEventConsumers(occ.Stamp.Seq, occ, st, false)
}

// retractSupportIf retracts one dependent's support only if that support
// actually contains the erased occurrence (dependent refs carry no body
// sequence, and the same node|key can occur more than once).
func (e *Engine) retractSupportIf(dep dependentRef, bodySeq uint64, cause KeyedAt, st Stamp) {
	tb := e.liveDemanded(dep)
	if tb == nil {
		return
	}
	sups := tb.liveRow(dep.key).supports
	i := slices.IndexFunc(sups, func(s support) bool { return s.deriveID == dep.deriveID })
	if i >= 0 && slices.ContainsFunc(sups[i].body, func(b BodyRef) bool { return b.Seq == bodySeq }) {
		e.dropSupport(dep.node, tb, dep.key, dep.deriveID, cause, st)
	}
}

// aggregateErase takes an erased contributor out of its count() group: a
// chain that links it is cut back to before it (cutChain); a link still to
// come is dropped with the occurrence. A group that cannot be recovered
// counts as an AggRetractMisses.
func (e *Engine) aggregateErase(r *CompiledRule, occ KeyedAt, st Stamp) {
	sat, mark, err := e.satBindings(r, 0, occ.Node, occ.Tuple, occ.Key, occ.Stamp)
	defer e.work.join.release(mark)
	// No binding: a constraint kept it out of the group. A group outside the
	// demand is left as the base run made it.
	if err == nil && len(sat) > 0 && (e.demand == nil || e.demand.derives(r, sat[0].frame)) {
		var node string
		var g *aggGroup
		if node, g, err = e.aggGroupOf(r, occ.Node, sat[0].frame); err == nil {
			if h, sup := e.aggHead(node, r, g); h != nil && !linkStamp(h, sup).Before(occ.Stamp) {
				e.cutChain(r, node, g, sat[0].frame, occ.Stamp, occ, st)
			}
		}
	}
	if err != nil {
		e.stats.AggRetractMisses++
	}
}

// cutChain re-steps group g of counting rule r from stamp c: the chain is
// cut back to the link live before c, as a run with the repair's change in
// its log has it. Each link whose contributor is at or after c is erased
// like an event occurrence — its head row's stamp is killed, the row is not
// written, the live head is retracted under cause at st — and its surviving
// contributor queued to be linked again at its own stamp (wkRelink), so a
// chain only grows at its end. The link live before c heads the group
// again, its row alive again. The walk back keeps nothing per contributor:
// a head has its count in its key, so the link before one is the newest
// unkilled row of the key the head evaluates to one count down (prevLink).
// Rules over the head see the erased rows' firings erased and the revived
// row appear again where it had died.
func (e *Engine) cutChain(r *CompiledRule, node string, g *aggGroup, frame []Value, c Stamp, cause KeyedAt, st Stamp) {
	tb := e.writableTable(node, e.table(node, r.rule.Head.Table))
	tb.killed = true
	consumers := len(e.compiled.triggers[tb.decl.Name]) > 0
	h, sup := e.aggHead(node, r, g)
	e.dropSupport(node, tb, h.key, sup.deriveID, cause, st)
	for ; h != nil && !linkStamp(h, sup).Before(c); h, sup = e.prevLink(tb, r, frame, g.count, h.appearedAt) {
		e.killedOccs.Set(h.appearedAt.Seq, true)
		if consumers {
			e.eraseEventConsumers(h.appearedAt.Seq, cause, st, false)
		}
		if o := e.occurrence(e.table(node, r.body[0].table), sup.body[0]); o != nil && !e.killedOccs.Get(o.appearedAt.Seq) {
			e.push(wkRelink, node, o.tuple, o.appearedAt, &Derivation{Rule: r.name, Head: KeyedAt{Key: o.key}})
		}
		g.count--
	}
	if h == nil {
		if g.count != 0 {
			e.stats.AggRetractMisses++ // the chain broke off
		}
		*g = aggGroup{}
		return
	}
	g.prevKey, g.prevID = h.key, sup.deriveID
	if died := h.diedAt; h.dead {
		h = e.reviveRow(tb, h)
		if tb.byKey.Get(h.key) != h.pos+1 {
			tb.byKey.Set(h.key, h.pos+1)
		}
		if consumers && (e.trigger(node, h.tuple, h.key, died) != nil || e.refireForRow(node, h, died, Stamp{}) != nil) {
			e.stats.AggRetractMisses++
		}
	}
}

// prevLink returns the head row, and its link's support, of count n in the
// chain of r's group that frame binds, appeared before stamp before.
func (e *Engine) prevLink(tb *table, r *CompiledRule, frame []Value, n int64, before Stamp) (*row, support) {
	if n == 0 {
		return nil, support{}
	}
	frame[r.countSlot] = Int(n)
	kb := getKeyBuf()
	key, err := r.appendHeadKey(kb.b[:0], frame)
	p, _ := tb.byKey.Find(func(m map[string]int32) (int32, bool) {
		p, ok := m[string(key)]
		return p, ok
	})
	putKeyBuf(kb, key)
	for h := tb.rowAt(p); err == nil && h != nil; h = tb.rowAt(h.prev) {
		i := slices.IndexFunc(h.supports, func(s support) bool { return s.rule == r.name })
		if i >= 0 && h.appearedAt.Before(before) && !e.killedOccs.Get(h.appearedAt.Seq) {
			return h, h.supports[i]
		}
	}
	return nil, support{}
}

// occurrence returns the row of the appearance b names in tb, or nil.
func (e *Engine) occurrence(tb *table, b BodyRef) *row {
	for o := tb.rowAt(tb.byKey.Get(b.Key)); o != nil; o = tb.rowAt(o.prev) {
		if o.appearedAt.Seq == b.Seq {
			return o
		}
	}
	return nil
}

// amTrigger identifies an argmax trigger occurrence: the rule's position in
// its program and the stamp sequence of the triggering element, which names
// that appearance alone in the engine's timeline (0 names none).
type amTrigger struct {
	rule int
	seq  uint64
}

// amWinner is the winner an argmax trigger currently supports: its head's
// derivation and the winning binding's body. amDeriv holds one per trigger
// of a state head, never deleted: a stale one (its support since
// retracted) is skipped by the retraction but still tells whether the
// winner changed. An event head's is found where it is (eventWinner).
type amWinner struct {
	ref  dependentRef
	body []BodyRef
}

// eventWinner returns the occurrence and winner of the newest event head
// argmax trigger at derived — delivered, and filed under the trigger, or
// still queued (onTheWay) — or the zero amWinner if it derived none.
func (e *Engine) eventWinner(r *CompiledRule, at amTrigger) (occ KeyedAt, w amWinner) {
	e.eachConsumer(at.seq, func(d occDep) {
		if s := d.occ.supports[0]; s.rule == r.name && s.body[d.trigAtom].Seq == at.seq && s.deriveID > w.ref.deriveID {
			occ, w = keyedAt(d.node.name, d.occ.tuple, d.occ.key, d.occ.appearedAt), amWinner{dependentRef{d.node.name, d.occ.key, s.deriveID}, s.body}
		}
	})
	if it := e.onTheWay(at); it != nil && it.deriv.ID > w.ref.deriveID {
		d := it.deriv
		occ, w = keyedAt(it.node, it.tuple, d.Head.Key, it.stamp), amWinner{dependentRef{it.node, d.Head.Key, d.ID}, d.Refs}
	}
	return occ, w
}

// onTheWay returns the queued delivery of the newest derivation argmax
// trigger at made, or nil, from the scratch's index of them: built from the
// queue on a repair's first look, kept up by fireBinding, emptied with the
// queue. An indexed item since delivered is recycled, and names no trigger.
func (e *Engine) onTheWay(at amTrigger) *workItem {
	w := e.scratch()
	if !w.looking {
		if w.onTheWay == nil {
			w.onTheWay = map[amTrigger]*workItem{}
		}
		w.looking = true
		for _, it := range e.queue {
			if k := e.amTriggerOf(it); k.seq != 0 && (w.onTheWay[k] == nil || w.onTheWay[k].deriv.ID < it.deriv.ID) {
				w.onTheWay[k] = it
			}
		}
	}
	if it := w.onTheWay[at]; it != nil && e.amTriggerOf(it) == at {
		return it
	}
	return nil
}

// amTriggerOf returns the argmax trigger whose derivation a work item
// delivers, or the zero amTrigger.
func (e *Engine) amTriggerOf(it *workItem) amTrigger {
	if d := it.deriv; it.kind == wkArriveDerived {
		if r := e.compiled.rules[d.Rule]; r != nil && r.argMaxSlot >= 0 {
			return amTrigger{r.idx, d.Refs[d.Trigger].Seq}
		}
	}
	return amTrigger{}
}

// cfReeval is one queued argmax trigger re-evaluation, recorded when an
// out-of-order retraction removes an argmax winner whose trigger fired
// after the retraction point.
type cfReeval struct {
	rule        *CompiledRule
	atom        int
	trig, cause KeyedAt
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
	rs.reevals = append(rs.reevals, cfReeval{rule: r, atom: atom,
		trig: keyedAt(node, tuple, key, trig), cause: keyedAt(node, tuple, key, st)})
}

// triggerOf reconstructs the trigger occurrence of a support: the
// max-stamp body element. Each element is the row of its key whose
// appearance the bodyRef's seq names, found by walking the key's rows. A
// state trigger that has since died is dropped (ok=false): its firings
// were retracted with it and a timely run would not re-fire.
func (e *Engine) triggerOf(r *Rule, sup support) (atom int, tuple Tuple, st Stamp, ok bool) {
	best, bestDead := -1, false
	for i, b := range sup.body {
		if i >= len(r.Body) {
			return 0, Tuple{}, Stamp{}, false
		}
		tb := e.table(b.Node, r.Body[i].Table)
		if tb == nil {
			return 0, Tuple{}, Stamp{}, false
		}
		var el *row
		e.appearances(tb, tb.byKey.Get(b.Key), func(o *row) bool {
			if o.appearedAt.Seq == b.Seq {
				el = o
			}
			return el == nil
		})
		if el == nil {
			return 0, Tuple{}, Stamp{}, false
		}
		if best < 0 || st.Before(el.appearedAt) {
			best, tuple, st, bestDead = i, el.tuple, el.appearedAt, el.dead && !tb.decl.Event
		}
	}
	if best < 0 || bestDead {
		return 0, Tuple{}, Stamp{}, false
	}
	return best, tuple, st, true
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
			if si, sj := batch[i].trig.Stamp, batch[j].trig.Stamp; si != sj {
				return si.Before(sj)
			}
			if ri, rj := batch[i].rule.name, batch[j].rule.name; ri != rj {
				return ri < rj
			}
			return batch[i].trig.Key < batch[j].trig.Key
		})
		for _, rq := range batch {
			if err := e.reevalArgMax(rq.rule, rq.atom, rq.trig, rq.cause); err != nil {
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
func (e *Engine) reevalArgMax(r *CompiledRule, deltaAtom int, trig, cause KeyedAt) error {
	nodeName, st := trig.Node, trig.Stamp
	if d := e.prog.Decl(trig.Tuple.Table); d != nil && d.Event && e.killedOccs.Get(st.Seq) {
		return nil // the trigger occurrence was erased after this re-eval was queued
	}
	sat, mark, err := e.satBindings(r, deltaAtom, nodeName, trig.Tuple, trig.Key, st)
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
	if e.demand != nil && !e.demand.derives(r, win.frame) {
		// Every binding of one trigger agrees on the head's bound columns,
		// the winner it derived before included: all outside the demand.
		return nil
	}
	at := amTrigger{r.idx, st.Seq}
	occ, cur := KeyedAt{}, e.amDeriv.Get(at)
	if r.eventHead {
		occ, cur = e.eventWinner(r, at)
	}
	switch found := cur.ref.deriveID != 0; {
	case found && slices.EqualFunc(cur.body, win.refs, func(a, b BodyRef) bool { return a.TupleRef() == b.TupleRef() }):
		// The same tuples on the same nodes at every body atom: the same
		// binding, as they determine its variables and it theirs. The
		// winner is unchanged; the evaluated derivation stands (or fell with
		// its own supports).
		return nil
	case found && r.eventHead:
		// A displaced event-head winner has no live row; erase its
		// occurrence (idempotent — a cascade may already have erased it).
		e.eraseOccurrence(occ, cur.ref.deriveID, r.name, cause, st)
	case found:
		// Retract the displaced winner's head. The support may already be
		// gone (retracted by a cascade); retractSupport handles that.
		e.retractSupport(cur.ref, cause, st)
	}
	return e.fireBinding(r, deltaAtom, nodeName, win, st)
}
