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
	// tuple within one work item).
	pendingInsert int
	// pendingDelete likewise links DELETE to the following DISAPPEAR.
	pendingDelete int
	// underiveVertex maps engine underivation IDs to UNDERIVE vertexes
	// so a following DISAPPEAR can reference its cause.
	underiveVertex map[int64]int
	// eagerAgg materializes the full contributor list on every aggregate
	// DERIVE at record time (the pre-delta behavior, O(k) per update).
	// Default off: aggregates record the delta alone and Graph.ChildrenOf
	// folds on demand. Both modes yield byte-identical folded trees and
	// fingerprints; eager is the oracle's setting (replay.Oracle()) — the
	// reference side of the differential tests.
	eagerAgg bool

	// Copy-on-write state (see cow.go): sealed marks the recorder frozen
	// as a base run, and base chains a fork to the frozen recorder it
	// shadows (underiveVertex reads walk the chain; writes stay local).
	sealed bool
	base   *Recorder
}

// RecorderOption configures a Recorder.
type RecorderOption func(*Recorder)

// WithEagerAggregates selects eager materialization of aggregate
// contributor lists at record time instead of lazy folding. It is the
// oracle's setting: replay.Oracle() applies it, and package-local tests
// construct it directly; nothing else turns it on.
func WithEagerAggregates(on bool) RecorderOption {
	return func(r *Recorder) { r.eagerAgg = on }
}

// NewRecorder creates a recorder for executions of the given program.
func NewRecorder(prog *ndlog.Program, opts ...RecorderOption) *Recorder {
	r := &Recorder{
		prog:           prog,
		graph:          NewGraph(),
		pendingInsert:  -1,
		pendingDelete:  -1,
		underiveVertex: map[int64]int{},
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Graph returns the graph built so far. The graph remains owned by the
// recorder and keeps growing as the engine runs.
func (r *Recorder) Graph() *Graph { return r.graph }

// OnBaseInsert implements ndlog.Observer.
func (r *Recorder) OnBaseInsert(at ndlog.KeyedAt) {
	v := r.graph.add(&Vertex{Type: Insert, Node: at.Node, Tuple: at.Tuple, key: at.Key, At: at.Stamp})
	r.pendingInsert = v.ID
}

// OnBaseDelete implements ndlog.Observer.
func (r *Recorder) OnBaseDelete(at ndlog.KeyedAt) {
	v := r.graph.add(&Vertex{Type: Delete, Node: at.Node, Tuple: at.Tuple, key: at.Key, At: at.Stamp})
	r.pendingDelete = v.ID
}

// OnDerive implements ndlog.Observer.
func (r *Recorder) OnDerive(d ndlog.Derivation) {
	if d.AggCount > 0 {
		r.onDeriveAggregate(d)
		return
	}
	v := &Vertex{
		Type:    Derive,
		Node:    d.Node,
		Tuple:   d.Head.Tuple,
		key:     d.Head.Key,
		Rule:    d.Rule,
		At:      d.Head.Stamp,
		Trigger: -1,
	}
	for i, b := range d.Refs {
		child := r.bodyVertex(b)
		if child < 0 {
			continue
		}
		v.Children = append(v.Children, child)
		if i == d.Trigger {
			v.Trigger = len(v.Children) - 1
		}
	}
	r.graph.add(v)
	r.graph.byDerive[d.ID] = v.ID
	if v.Trigger >= 0 {
		trig := v.Children[v.Trigger]
		appendTo(r.graph, selTriggerParents, trig, v.ID)
	}
}

// onDeriveAggregate records an aggregate delta derivation: the vertex is
// annotated with the chain link (previous head's DERIVE, new contributor,
// running count) and carries only the new contributor as a recorded
// child — unless the recorder is in eager mode, in which case the full
// folded list is materialized into Children right away. In both modes the
// trigger (the precondition that appeared last) is the new contributor,
// and the fingerprint is the chain hash, so everything downstream of
// Graph.ChildrenOf sees identical structure.
func (r *Recorder) onDeriveAggregate(d ndlog.Derivation) {
	v := &Vertex{
		Type:       Derive,
		Node:       d.Node,
		Tuple:      d.Head.Tuple,
		key:        d.Head.Key,
		Rule:       d.Rule,
		At:         d.Head.Stamp,
		Trigger:    -1,
		aggPrev:    -1,
		aggContrib: -1,
		aggCount:   d.AggCount,
	}
	if d.AggPrev != 0 {
		if pv, ok := r.graph.deriveVertex(d.AggPrev); ok {
			v.aggPrev = pv
		}
	}
	if len(d.Refs) > 0 {
		v.aggContrib = r.bodyVertex(d.Refs[0])
	}
	if r.eagerAgg {
		// Reference mode: fold the predecessor's list and append the new
		// contributor — O(k) per update, the pre-delta cost.
		if v.aggPrev >= 0 {
			v.Children = append(v.Children, r.graph.ChildrenOf(v.aggPrev)...)
		}
		if v.aggContrib >= 0 {
			v.Children = append(v.Children, v.aggContrib)
			v.Trigger = len(v.Children) - 1
		}
	} else if v.aggContrib >= 0 {
		v.Children = []int{v.aggContrib}
		v.Trigger = 0
	}
	r.graph.add(v)
	r.graph.byDerive[d.ID] = v.ID
	if v.aggContrib >= 0 {
		appendTo(r.graph, selTriggerParents, v.aggContrib, v.ID)
	}
}

// bodyVertex resolves a derivation body reference to its cause vertex:
// the EXIST vertex of the appearance for state tuples, or the APPEAR
// vertex itself for event tuples (which never exist as state).
func (r *Recorder) bodyVertex(b ndlog.BodyRef) int {
	if id, ok := lookup(r.graph, selExistByRef, b); ok {
		return id
	}
	if id, ok := lookup(r.graph, selAppearByRef, b); ok {
		return id
	}
	return -1
}

// OnAppear implements ndlog.Observer.
func (r *Recorder) OnAppear(at ndlog.KeyedAt, deriveID int64) {
	ap := &Vertex{Type: Appear, Node: at.Node, Tuple: at.Tuple, key: at.Key, At: at.Stamp}
	if deriveID != 0 {
		if dv, ok := r.graph.deriveVertex(deriveID); ok {
			ap.Children = append(ap.Children, dv)
		}
	} else if r.pendingInsert >= 0 {
		ap.Children = append(ap.Children, r.pendingInsert)
		r.pendingInsert = -1
	}
	r.graph.add(ap)
	if len(ap.Children) == 1 {
		r.graph.headAppear[ap.Children[0]] = ap.ID
	}

	ref, tk := at.Ref(), at.TupleRef()
	r.graph.appearByRef[ref] = ap.ID
	appendTo(r.graph, selAppearsByTuple, tk, ap.ID)
	appendTo(r.graph, selAppearsByTable, tableRef{node: at.Node, table: at.Tuple.Table}, ap.ID)

	decl := r.prog.Decl(at.Tuple.Table)
	if decl != nil && decl.Event {
		return // events do not persist: no EXIST vertex
	}
	ex := &Vertex{
		Type:     Exist,
		Node:     at.Node,
		Tuple:    at.Tuple,
		key:      at.Key,
		Span:     ndlog.Interval{From: at.Stamp, Open: true},
		Children: []int{ap.ID},
	}
	r.graph.add(ex)
	r.graph.openExist[tk] = ex.ID
	r.graph.existByRef[ref] = ex.ID
	r.graph.existOf[ap.ID] = ex.ID
}

// OnUnderive implements ndlog.Observer.
func (r *Recorder) OnUnderive(u ndlog.Underivation) {
	v := &Vertex{
		Type:  Underive,
		Node:  u.Node,
		Tuple: u.Head.Tuple,
		key:   u.Head.Key,
		Rule:  u.Rule,
		At:    u.Head.Stamp,
	}
	// The cause of the underivation is the disappearance of the body
	// tuple that vanished.
	if dv, ok := lookup(r.graph, selLastDisappear, u.Cause.TupleRef()); ok {
		v.Children = append(v.Children, dv)
	}
	r.graph.add(v)
	r.underiveVertex[u.ID] = v.ID
}

// OnDisappear implements ndlog.Observer.
func (r *Recorder) OnDisappear(at ndlog.KeyedAt, underiveID int64) {
	tk := at.TupleRef()
	if exID, ok := lookup(r.graph, selOpenExist, tk); ok {
		ex := r.graph.mutableVertex(exID)
		ex.Span.To = at.Stamp
		ex.Span.Open = false
		r.graph.deleteOpenExist(tk)
	}
	dis := &Vertex{Type: Disappear, Node: at.Node, Tuple: at.Tuple, key: at.Key, At: at.Stamp}
	if underiveID != 0 {
		if uv, ok := r.underiveOf(underiveID); ok {
			dis.Children = append(dis.Children, uv)
		}
	} else if r.pendingDelete >= 0 {
		dis.Children = append(dis.Children, r.pendingDelete)
		r.pendingDelete = -1
	}
	r.graph.add(dis)
	r.graph.lastDisappear[tk] = dis.ID
}

var _ ndlog.Observer = (*Recorder)(nil)
