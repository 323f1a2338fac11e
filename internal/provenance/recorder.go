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

	// pendingInsert is the INSERT vertex awaiting its APPEAR (the engine
	// emits OnBaseInsert immediately followed by OnAppear for the same
	// tuple within one work item). pendingDelete likewise links DELETE to
	// the following DISAPPEAR. Both are int32, like the vertex links, so a
	// fork's Recorder is a 32-byte allocation where it would be 48.
	pendingInsert, pendingDelete int32

	// sealed marks the recorder frozen as a base run (see cow.go).
	sealed bool
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
	r.pendingInsert = int32(r.graph.add(r.vertexOn(Insert, nil, at.Node, at, ""), nil).ID)
}

// OnBaseDelete implements ndlog.Observer.
func (r *Recorder) OnBaseDelete(at ndlog.KeyedAt) {
	r.pendingDelete = int32(r.graph.add(r.vertexOn(Delete, nil, at.Node, at, ""), nil).ID)
}

// vertexOn fills in what every vertex carries: its type, the label of the
// occurrence's tuple on the given node, its stamp, and the rule for
// DERIVE/UNDERIVE. The label is l — a cause's, about the same tuple — if l
// names that node, and else the tuple's label from the graph. A DERIVE
// names the node that made it; its head may appear, and be underived, on
// another.
func (r *Recorder) vertexOn(typ VertexType, l *label, node string, at ndlog.KeyedAt, rule string) Vertex {
	if l == nil || l.Node != node {
		l = r.graph.labelOf(node, at.Tuple, at.Key)
	}
	return Vertex{label: l, Type: typ, Rule: rule, At: at.Stamp}
}

// OnDerive implements ndlog.Observer.
func (r *Recorder) OnDerive(d ndlog.Derivation) {
	if d.AggCount > 0 {
		r.onDeriveAggregate(d)
		return
	}
	v := r.vertexOn(Derive, nil, d.Node, d.Head, d.Rule)
	v.Trigger = -1
	var scratch [8]int
	children := scratch[:0]
	for i, b := range d.Refs {
		child := r.bodyVertex(b)
		if child < 0 {
			continue
		}
		if i == d.Trigger {
			v.Trigger = len(children)
		}
		children = append(children, child)
	}
	dv := r.graph.add(v, children)
	r.graph.setDerive(d.ID, dv.ID)
	if v.Trigger >= 0 {
		r.graph.linkTrigger(children[v.Trigger], dv)
	}
}

// onDeriveAggregate records an aggregate delta derivation: the vertex is
// annotated with the chain link (previous head's DERIVE, contributor,
// running count) and carries only the new contributor as a recorded child,
// which is also its trigger (the precondition that appeared last);
// Graph.ChildrenOf folds the chain into the full list on demand. A removal
// link (Derivation.AggRemove) names the contributor it takes out of the
// group: that is no cause of the new head, so it records no child and
// triggers nothing.
func (r *Recorder) onDeriveAggregate(d ndlog.Derivation) {
	v := r.vertexOn(Derive, nil, d.Node, d.Head, d.Rule)
	v.Trigger = -1
	v.prev, v.aggContrib, v.aggCount, v.aggRemove = -1, -1, int32(d.AggCount), d.AggRemove
	if d.AggPrev != 0 {
		if pv, ok := r.graph.deriveVertex(d.AggPrev); ok {
			v.prev = int32(pv)
		}
	}
	if len(d.Refs) > 0 {
		v.aggContrib = int32(r.bodyVertex(d.Refs[0]))
	}
	var buf [1]int
	var children []int
	trigger := v.aggContrib >= 0 && !v.aggRemove
	if trigger {
		children, v.Trigger = single(&buf, int(v.aggContrib)), 0
	}
	dv := r.graph.add(v, children)
	r.graph.setDerive(d.ID, dv.ID)
	if trigger {
		r.graph.linkTrigger(int(v.aggContrib), dv)
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
		l = r.graph.vertex(cause).label
	}
	var buf [1]int
	av := r.graph.add(r.vertexOn(Appear, l, at.Node, at, ""), single(&buf, cause))
	r.graph.indexAppear(av, cause)

	decl := r.prog.Decl(at.Tuple.Table)
	if decl != nil && decl.Event {
		return // events do not persist: no EXIST vertex
	}
	// The EXIST directly follows its APPEAR: ExistOf and openExist find it
	// by that adjacency, not through an index.
	r.graph.add(Vertex{label: av.label, Type: Exist, Open: true, At: at.Stamp}, single(&buf, av.ID))
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
		l = r.graph.vertex(dv).label
	}
	v := r.vertexOn(Underive, l, u.Node, u.Head, u.Rule)
	// The cause of the underivation is the disappearance of the body
	// tuple that vanished.
	cause := r.graph.newest(u.Cause.TupleRef(), newestDisappear)
	var buf [1]int
	r.graph.setDerive(u.ID, r.graph.add(v, single(&buf, cause)).ID)
}

// OnDisappear implements ndlog.Observer.
func (r *Recorder) OnDisappear(at ndlog.KeyedAt, underiveID int64) {
	tk := at.TupleRef()
	var l *label // the open EXIST's, which names the tuple
	if exID := r.graph.openExist(tk); exID >= 0 {
		ex := r.graph.mutableVertex(exID)
		ex.Span.To, ex.Open = at.Stamp, false
		l = ex.label
	}
	cause := -1
	if underiveID != 0 {
		if uv, ok := r.graph.deriveVertex(underiveID); ok {
			cause = uv
		}
	} else if r.pendingDelete >= 0 {
		cause, r.pendingDelete = int(r.pendingDelete), -1
	}
	var buf [1]int
	r.graph.indexDisappear(r.graph.add(r.vertexOn(Disappear, l, at.Node, at, ""), single(&buf, cause)))
}

var _ ndlog.Observer = (*Recorder)(nil)
