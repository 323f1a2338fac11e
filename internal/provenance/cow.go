package provenance

import (
	"slices"

	"repro/internal/ndlog"
)

// Copy-on-write graph forks.
//
// A counterfactual trial's provenance graph is the session's base-run
// graph — tens of thousands of vertexes — plus the few vertexes the
// trial's changes add. Forks share the frozen base instead of copying it:
//
//   - Seal freezes a recorder (and its graph) once its engine becomes a
//     base run; sealed graphs are never recorded into again.
//   - Fork of a sealed graph keeps a reference to the base, stores only
//     fork-local records in its own slabs (vertex IDs continue from
//     baseLen) and the labels it is first to give in its own label slab,
//     and starts every index empty: writes land locally, reads walk the
//     base chain in shadowing order. byTuple, byDerive and the overflow
//     maps below are per link by design, since what they hold names the
//     link's own vertexes.
//   - Reverse edges (a cause's head APPEAR, the DERIVEs a vertex
//     triggered) are links in the records, set by the graph that recorded
//     both ends; an edge off a sealed base's vertex goes to the fork's
//     overflow table (headOver, trigOver) and the base stays untouched.
//   - The single change the recorder ever makes to a recorded vertex —
//     closing an EXIST's interval when its tuple dies — is a stamp in the
//     closing DISAPPEAR's record when the EXIST is the same link's, and
//     otherwise a fork-local close stamp (closes). A read of that EXIST
//     through the fork synthesises the fork's own view of it.
//
// Everything list-valued (a tuple's APPEARs, a vertex's triggered
// DERIVEs) is append-only, so a fork's local part holds only what the fork
// itself appended (a tail): reads concatenate the chain oldest-first
// instead of the append copying the base's list. No index has deletions:
// which EXIST is open is read off the records (openExist, existEnd).
//
// Everything downstream — tree projection, seed finding, fold memo — goes
// through the accessors, so a fork is observationally identical to a
// straight-through recording of the same execution.

// Seal freezes the recorder and its graph as a base run: from now on the
// pair is only ever read and forked, never recorded into.
func (r *Recorder) Seal() { r.graph.sealed = true }

// Sealed reports whether Seal froze the recorder.
func (r *Recorder) Sealed() bool { return r.graph.sealed }

// Fork returns a recorder (with a fork of the graph) that can observe a
// fork of the sealed receiver's engine independently. The bookkeeping that
// spans observer callbacks within one work item (pendingInsert /
// pendingDelete) is copied as-is, and is -1 between work items. Forking
// an unsealed recorder is a bug and panics (see Graph.Fork).
func (r *Recorder) Fork() *Recorder {
	if !r.graph.sealed {
		panic("provenance: Fork of unsealed recorder")
	}
	return &Recorder{
		prog:          r.prog,
		graph:         r.graph.Fork(),
		pendingInsert: r.pendingInsert,
		pendingDelete: r.pendingDelete,
	}
}

// Fork returns a graph that keeps growing independently of the sealed
// receiver, in O(1) + O(fold memo): empty slabs and indexes over the
// receiver's. Only the fold memo is copied eagerly — it is written during
// reads (tree projection), so chaining it through the base would need
// cross-graph locking; folded contributor lists are immutable once
// memoized, so the fork shares the slices.
//
// Fork never mutates the receiver, so concurrent forks of one sealed
// graph are safe. Forking an unsealed graph is a bug — its recorder could
// still append to the records the fork would share — and panics.
func (g *Graph) Fork() *Graph {
	if !g.sealed {
		panic("provenance: Fork of unsealed graph")
	}
	f := &Graph{
		byTuple:     map[ndlog.TupleRef]tupleEnds{},
		firstDerive: g.firstDerive + int64(len(g.byDerive)),
		base:        g,
		baseLen:     g.NumVertexes(),
	}
	// Under the lock because sibling forks and readers of the shared base
	// may fold concurrently.
	g.foldMu.Lock()
	f.foldMemo = make(map[int][]int, len(g.foldMemo))
	for k, ids := range g.foldMemo {
		f.foldMemo[k] = ids
	}
	g.foldMu.Unlock()
	return f
}

// existEnd returns where the EXIST's interval ends as this graph sees it,
// and whether it has: in the record of the link that recorded it, or in
// the close stamp of the topmost link that closed it.
func (g *Graph) existEnd(id int) (ndlog.Stamp, bool) {
	for gr := g; ; gr = gr.base {
		if id >= gr.baseLen {
			_, e := gr.entry(id)
			if a := gr.app(e); a.parts&hasDisappear != 0 {
				return a.to, true
			}
			return ndlog.Stamp{}, false
		}
		if to, ok := gr.closes[id]; ok {
			return to, true
		}
	}
}

// addDisappear records the DISAPPEAR of the tuple whose open EXIST is
// exist (-1: none), caused by cause (an UNDERIVE or DELETE, or -1), and
// closes the EXIST: in its record if this link recorded it, else with a
// close stamp of this link's. The DISAPPEAR joins its occurrence's record
// if this link has it, and else takes one of its own; the DELETE that
// caused it, if joinable, joins it.
func (g *Graph) addDisappear(l *label, at ndlog.Stamp, cause, exist int) int {
	g.writable()
	del := g.joinable(cause, Delete, l, at)
	var rec int
	switch {
	case exist >= g.baseLen:
		_, e := g.entry(exist)
		rec = int(e >> typeBits)
		if del >= 0 {
			// The DELETE moves in from the record it took last.
			g.apps.pop()
			g.setEntry(cause, Delete, rec)
			g.apps.at(rec).parts |= hasDelete
		}
		g.cacheMu.Lock()
		if v := g.cache.get(exist); v != nil {
			v.Open, v.Span.To = false, at
		}
		g.cacheMu.Unlock()
	case del >= 0:
		rec = del
	default:
		var a *appearance
		a, rec = g.apps.push()
		*a = appearance{lab: l, cause: -1, prev: -1}
	}
	if exist >= 0 && exist < g.baseLen {
		if g.closes == nil {
			g.closes = map[int]ndlog.Stamp{}
		}
		g.closes[exist] = at
	}
	id := g.newID(Disappear, rec)
	a := g.apps.at(rec)
	a.to, a.endCause, a.parts = at, int32(cause), a.parts|hasDisappear
	tk := ndlog.TupleRef{Node: l.Node, Key: l.key}
	ends := g.byTuple[tk]
	ends.newest[newestDisappear], ends.lab = int32(id)+1, l
	g.byTuple[tk] = ends
	return id
}

// deriveVertex resolves an engine derivation (or underivation) ID to its
// DERIVE (UNDERIVE) vertex. The links' dense ranges are disjoint — a
// fork's starts where its base's ends — and anything reported below a
// link's range is in that link's lateDerive.
func (g *Graph) deriveVertex(id int64) (int, bool) {
	for gr := g; gr != nil; gr = gr.base {
		if off := id - gr.firstDerive; off >= 0 && off < int64(len(gr.byDerive)) && gr.byDerive[off] != 0 {
			return int(gr.byDerive[off]) - 1, true
		}
		if v, ok := gr.lateDerive[id]; ok {
			return int(v), true
		}
	}
	return 0, false
}

// setDerive records that the engine's derivation or underivation id is
// vertex vid of this graph.
func (g *Graph) setDerive(id int64, vid int) {
	if g.firstDerive == 0 {
		g.firstDerive = id // a root (or a fork of a chain that saw none) starts at the first ID it is told
	}
	off := id - g.firstDerive
	if off < 0 {
		if g.lateDerive == nil {
			g.lateDerive = map[int64]int32{}
		}
		g.lateDerive[id] = int32(vid)
		return
	}
	if grow := int(off) + 1 - len(g.byDerive); grow > 0 {
		if g.byDerive == nil {
			g.byDerive = make([]int32, 0, 4) // a fork's first four IDs, where appending from nil allocated twice
		}
		g.byDerive = append(g.byDerive, make([]int32, grow)...)
	}
	g.byDerive[off] = int32(vid) + 1
}

// tupleEnds is one tuple's entry in byTuple: the tuple's label, and the
// newest APPEAR and the newest DISAPPEAR this graph recorded for it, each
// as vertex ID + 1 (0: this link recorded none, ask the base).
type tupleEnds struct {
	lab    *label
	newest [2]int32
}

const newestAppear, newestDisappear = 0, 1

// ownApp and ownDeriv return the record of the vertex a link (ID + 1) into
// this graph's own ID table names.
func (g *Graph) ownApp(link int32) *appearance {
	_, e := g.entry(int(link) - 1)
	return g.app(e)
}

func (g *Graph) ownDeriv(link int32) *derivation {
	_, e := g.entry(int(link) - 1)
	return g.deriv(e)
}

// newest returns the tuple's newest APPEAR or DISAPPEAR, or -1: the
// topmost chain link that recorded one holds the most recent.
func (g *Graph) newest(tk ndlog.TupleRef, end int) int {
	for gr := g; gr != nil; gr = gr.base {
		if id := gr.byTuple[tk].newest[end]; id != 0 {
			return int(id) - 1
		}
	}
	return -1
}

// appearAt resolves a body reference — one appearance of a tuple, named by
// the Seq of its stamp — to its APPEAR vertex, or -1, walking the tuple's
// APPEARs newest-first, link by link: almost every reference is to the
// newest. The delta phase records appearances at past stamps, so the walk
// cannot stop early; and a row it backdated is referred to by a stamp no
// APPEAR carries, which resolves to nothing.
func (g *Graph) appearAt(b ndlog.BodyRef) int {
	tk := b.TupleRef()
	for gr := g; gr != nil; gr = gr.base {
		for a := gr.byTuple[tk].newest[newestAppear]; a != 0; {
			rec := gr.ownApp(a)
			if rec.at.Seq == b.Seq {
				return int(a) - 1
			}
			a = rec.prev + 1
		}
	}
	return -1
}

// labelOf returns the label of the tuple with the given key on the node:
// the one the chain's byTuple holds, or else a new one that this graph's
// byTuple holds from now on.
func (g *Graph) labelOf(node string, t ndlog.Tuple, key string) *label {
	tk := ndlog.TupleRef{Node: node, Key: key}
	for gr := g; gr != nil; gr = gr.base {
		if l := gr.byTuple[tk].lab; l != nil {
			return l
		}
	}
	l := g.labels.take(node, t, key)
	g.byTuple[tk] = tupleEnds{lab: l}
	return l
}

// indexAppear enters a just-recorded APPEAR, whose record is a, into the
// tuple index and makes it the head of its cause (a DERIVE or INSERT, or
// -1). An INSERT whose record the APPEAR joined needs no link: its head is
// the vertex right after it.
func (g *Graph) indexAppear(id int, a *appearance, cause int) {
	tk := ndlog.TupleRef{Node: a.lab.Node, Key: a.lab.key}
	ends := g.byTuple[tk]
	a.prev, ends.newest[newestAppear] = ends.newest[newestAppear]-1, int32(id)+1
	ends.lab = a.lab
	g.byTuple[tk] = ends

	switch {
	case cause >= g.baseLen:
		_, e := g.entry(cause)
		if entryType(e) == Derive {
			g.deriv(e).up = int32(id) + 1
		} else if c := g.app(e); c != a {
			c.apUp = int32(id) + 1
		}
	case cause >= 0:
		if g.headOver == nil {
			g.headOver = map[int]int32{}
		}
		g.headOver[cause] = int32(id) + 1
	}
}

// headOf returns the head APPEAR of a DERIVE or INSERT this link
// recorded, or -1.
func (g *Graph) headOf(id int) int {
	_, e := g.entry(id)
	if entryType(e) == Derive {
		return int(g.deriv(e).up) - 1
	}
	if a := g.app(e); a.parts&hasAppear == 0 {
		return int(a.apUp) - 1
	}
	return id + 1
}

// linkTrigger puts a just-recorded DERIVE on top of the list its trigger
// child (an APPEAR or EXIST) set off: the child's own record's if this
// graph recorded it, the overflow's if a base did.
func (g *Graph) linkTrigger(child, id int) {
	link := int32(id) + 1
	d := g.ownDeriv(link)
	if child >= g.baseLen {
		_, e := g.entry(child)
		a := g.app(e)
		if entryType(e) == Exist {
			d.older, a.exUp = a.exUp, link
		} else {
			d.older, a.apUp = a.apUp, link
		}
		return
	}
	if g.trigOver == nil {
		g.trigOver = map[int]int32{}
	}
	d.older, g.trigOver[child] = g.trigOver[child], link
}

// triggered appends the DERIVEs the vertex triggered, in recording order:
// the graph's that owns the vertex, then each fork's down the chain, each
// link's own threaded newest-first and turned around.
func (g *Graph) triggered(id int, out []int) []int {
	var d int32
	if id >= g.baseLen {
		_, e := g.entry(id)
		if a := g.app(e); entryType(e) == Exist {
			d = a.exUp
		} else {
			d = a.apUp
		}
	} else {
		out = g.base.triggered(id, out)
		d = g.trigOver[id]
	}
	from := len(out)
	for ; d != 0; d = g.ownDeriv(d).older {
		out = append(out, int(d)-1)
	}
	slices.Reverse(out[from:])
	return out
}
