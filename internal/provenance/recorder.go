package provenance

import (
	"repro/internal/ndlog"
)

// Recorder builds a temporal provenance graph incrementally from the
// primitive events emitted by an ndlog.Engine. It implements
// ndlog.Observer and corresponds to the paper's "provenance recorder"
// component operating in the direct-inference mode (§5): provenance is
// inferred from the declarative rules as they fire.
type Recorder struct {
	prog  *ndlog.Program
	graph *Graph

	// lastRule is the rule name ruleName found last: a run of derivations
	// by one rule looks it up once.
	lastRule *string

	// pendingInsert is the INSERT vertex awaiting its APPEAR (the engine
	// emits OnBaseInsert immediately followed by OnAppear for the same
	// tuple within one work item). pendingDelete likewise links DELETE to
	// the following DISAPPEAR. Both are int32, like the vertex links, so a
	// fork's Recorder is a 32-byte allocation where it would be 48. Its
	// graph says whether it is sealed (see cow.go).
	pendingInsert, pendingDelete int32
}

// NewRecorder creates a recorder for executions of the given program.
func NewRecorder(prog *ndlog.Program) *Recorder {
	return &Recorder{
		prog:          prog,
		graph:         NewGraph(),
		pendingInsert: -1,
		pendingDelete: -1,
	}
}

// Graph returns the graph built so far. The graph remains owned by the
// recorder and keeps growing as the engine runs.
func (r *Recorder) Graph() *Graph { return r.graph }

// OnBaseInsert implements ndlog.Observer.
func (r *Recorder) OnBaseInsert(at ndlog.KeyedAt) {
	r.pendingInsert = int32(r.graph.addPoint(Insert, r.labelOn(nil, at.Node, at), at.Stamp))
}

// OnBaseDelete implements ndlog.Observer.
func (r *Recorder) OnBaseDelete(at ndlog.KeyedAt) {
	r.pendingDelete = int32(r.graph.addPoint(Delete, r.labelOn(nil, at.Node, at), at.Stamp))
}

// labelOn returns the label of the occurrence's tuple on the given node:
// l — a cause's, about the same tuple — if l names that node, and else the
// tuple's label from the graph. A DERIVE names the node that made it; its
// head may appear, and be underived, on another.
func (r *Recorder) labelOn(l *label, node string, at ndlog.KeyedAt) *label {
	if l == nil || l.Node != node {
		l = r.graph.labelOf(node, at.Tuple, at.Key)
	}
	return l
}

// derivation starts the record of a DERIVE of the head on the node by the
// rule.
func (r *Recorder) derivation(l *label, node string, head ndlog.KeyedAt, rule string) derivation {
	return derivation{lab: r.labelOn(l, node, head), rule: r.ruleName(rule), at: head.Stamp, trigger: -1, prev: -1}
}

// ruleName returns the program's own copy of the rule's name, which
// records point at instead of holding the string.
func (r *Recorder) ruleName(rule string) *string {
	if r.lastRule != nil && *r.lastRule == rule {
		return r.lastRule
	}
	if ru := r.prog.Rule(rule); ru != nil {
		r.lastRule = &ru.Name
		return r.lastRule
	}
	name := rule // a rule the program does not declare
	return &name
}

// OnDerive implements ndlog.Observer.
func (r *Recorder) OnDerive(d ndlog.Derivation) {
	if d.AggCount > 0 {
		r.onDeriveAggregate(d)
		return
	}
	rec := r.derivation(nil, d.Node, d.Head, d.Rule)
	var scratch [8]int
	children := scratch[:0]
	for i, b := range d.Refs {
		child := r.bodyVertex(b)
		if child < 0 {
			continue
		}
		if i == d.Trigger {
			rec.trigger = int32(len(children))
		}
		children = append(children, child)
	}
	id := r.graph.addDerivation(rec, children)
	r.graph.setDerive(d.ID, id)
	if rec.trigger >= 0 {
		r.graph.linkTrigger(children[rec.trigger], id)
	}
}

// onDeriveAggregate records an aggregate delta derivation: the record is
// annotated with the chain link (previous head's DERIVE, running count)
// and records only the new contributor as a child, which is also its
// trigger (the precondition that appeared last); Graph.ChildrenOf folds
// the chain into the full list on demand. A removal link
// (Derivation.AggRemove) names the contributor it takes out of the group:
// that is no cause of the new head, so its vertex shows no child and it
// triggers nothing.
func (r *Recorder) onDeriveAggregate(d ndlog.Derivation) {
	rec := r.derivation(nil, d.Node, d.Head, d.Rule)
	rec.aggCount, rec.aggRemove = int32(d.AggCount), d.AggRemove
	if d.AggPrev != 0 {
		if pv, ok := r.graph.deriveVertex(d.AggPrev); ok {
			rec.prev = int32(pv)
		}
	}
	contrib := -1
	if len(d.Refs) > 0 {
		contrib = r.bodyVertex(d.Refs[0])
	}
	trigger := contrib >= 0 && !rec.aggRemove
	if trigger {
		rec.trigger = 0
	}
	var buf [1]int
	id := r.graph.addDerivation(rec, single(&buf, contrib))
	r.graph.setDerive(d.ID, id)
	if trigger {
		r.graph.linkTrigger(contrib, id)
	}
}

// bodyVertex resolves a derivation body reference to its cause vertex:
// the EXIST vertex of the appearance for state tuples, or the APPEAR
// vertex itself for event tuples (which never exist as state).
func (r *Recorder) bodyVertex(b ndlog.BodyRef) int {
	ap := r.graph.appearAt(b)
	if ex := r.graph.ExistOf(ap); ex >= 0 {
		return ex
	}
	return ap
}

// OnAppear implements ndlog.Observer.
func (r *Recorder) OnAppear(at ndlog.KeyedAt, deriveID int64) {
	cause := -1
	if deriveID != 0 {
		if dv, ok := r.graph.deriveVertex(deriveID); ok {
			cause = dv
		}
	} else if r.pendingInsert >= 0 {
		cause, r.pendingInsert = int(r.pendingInsert), -1
	}
	// The cause — the INSERT, or a DERIVE on this node — names the tuple.
	var l *label
	if cause >= 0 {
		l = r.graph.labelAt(cause)
	}
	decl := r.prog.Decl(at.Tuple.Table)
	// Events do not persist: no EXIST vertex.
	r.graph.addAppear(r.labelOn(l, at.Node, at), at.Stamp, cause, decl != nil && decl.Event)
}

// single returns the children list of a vertex with at most one cause:
// {id} in the caller's buffer, or none while the cause is unresolved (-1).
func single(buf *[1]int, id int) []int {
	if id < 0 {
		return nil
	}
	buf[0] = id
	return buf[:]
}

// OnUnderive implements ndlog.Observer.
func (r *Recorder) OnUnderive(u ndlog.Underivation) {
	var l *label
	if dv, ok := r.graph.deriveVertex(u.DeriveID); ok {
		l = r.graph.labelAt(dv)
	}
	// The cause of the underivation is the disappearance of the body
	// tuple that vanished.
	cause := r.graph.newest(u.Cause.TupleRef(), newestDisappear)
	r.graph.setDerive(u.ID, r.graph.addUnderivation(r.labelOn(l, u.Node, u.Head), r.ruleName(u.Rule), u.Head.Stamp, cause))
}

// OnDisappear implements ndlog.Observer.
func (r *Recorder) OnDisappear(at ndlog.KeyedAt, underiveID int64) {
	var l *label // the open EXIST's, which names the tuple
	exID := r.graph.openExist(at.TupleRef())
	if exID >= 0 {
		l = r.graph.labelAt(exID)
	}
	cause := -1
	if underiveID != 0 {
		if uv, ok := r.graph.deriveVertex(underiveID); ok {
			cause = uv
		}
	} else if r.pendingDelete >= 0 {
		cause, r.pendingDelete = int(r.pendingDelete), -1
	}
	r.graph.addDisappear(r.labelOn(l, at.Node, at), at.Stamp, cause, exID)
}

var _ ndlog.Observer = (*Recorder)(nil)
