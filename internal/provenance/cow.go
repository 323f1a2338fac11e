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
//     fork-local vertexes in its own slab chunks (IDs continue from
//     baseLen) and the labels it is first to give in its own label slab,
//     and starts every index empty: writes land locally, reads walk the
//     base chain in shadowing order. redirect is a cow.Overlay link;
//     byTuple, byDerive and the overflow maps below are per link by
//     design, since what they hold names the link's own vertexes.
//   - Reverse edges (a cause's head APPEAR, the DERIVEs a vertex
//     triggered) are links in the vertexes, set by the graph that recorded
//     both ends; an edge off a sealed base's vertex goes to the fork's
//     overflow table (headOver, trigOver) and the base stays untouched.
//   - The single in-place mutation the recorder ever performs — closing
//     an EXIST vertex's Span when its tuple dies — goes through
//     mutableVertex, which copies the base vertex into the fork's
//     redirect overlay. Fingerprints exclude Span, so the copy keeps its
//     cached fp.
//
// Everything list-valued (a tuple's APPEARs, a vertex's triggered
// DERIVEs) is append-only, so a fork's local part holds only what the fork
// itself appended (a tail): reads concatenate the chain oldest-first
// instead of the append copying the base's list. No index has deletions:
// which EXIST is open is read off the vertexes (openExist).
//
// Everything downstream — tree projection, seed finding, fold memo — goes
// through the accessors, so a fork is observationally identical to a
// straight-through recording of the same execution.

// Seal freezes the recorder and its graph as a base run: from now on the
// pair is only ever read and forked, never recorded into.
func (r *Recorder) Seal() {
	r.sealed = true
	r.graph.sealed = true
}

// Sealed reports whether Seal froze the recorder.
func (r *Recorder) Sealed() bool { return r.sealed }

// Fork returns a recorder (with a fork of the graph) that can observe a
// fork of the sealed receiver's engine independently. The bookkeeping that
// spans observer callbacks within one work item (pendingInsert /
// pendingDelete) is copied as-is, and is -1 between work items. Forking
// an unsealed recorder is a bug and panics (see Graph.Fork).
func (r *Recorder) Fork() *Recorder {
	if !r.sealed {
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
// receiver, in O(1) + O(fold memo): empty indexes, and overlays that are
// empty links over the receiver's. Only the fold memo is copied eagerly —
// it is written during reads (tree projection), so chaining it through the
// base would need cross-graph locking; folded contributor lists are
// immutable once memoized, so the fork shares the slices.
//
// Fork never mutates the receiver, so concurrent forks of one sealed
// graph are safe. Forking an unsealed graph is a bug — its recorder could
// still append to the slab the fork would share — and panics.
func (g *Graph) Fork() *Graph {
	if !g.sealed {
		panic("provenance: Fork of unsealed graph")
	}
	f := &Graph{
		byTuple:     map[ndlog.TupleRef]tupleEnds{},
		firstDerive: g.firstDerive + int64(len(g.byDerive)),
		base:        g,
		baseLen:     g.NumVertexes(),
		redirect:    g.redirect.Fork(),
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

// vertex returns the vertex with the given ID: a chain link's redirected
// copy, or else the slab slot of the link that recorded it. The caller
// guarantees 0 <= id < NumVertexes().
func (g *Graph) vertex(id int) *Vertex {
	if id < g.baseLen {
		if v := g.redirect.Get(id); v != nil {
			return v
		}
	}
	return g.recorded(id)
}

// recorded returns the slab slot of the chain link that recorded the
// vertex: the link whose local IDs, baseLen and up, include id.
func (g *Graph) recorded(id int) *Vertex {
	for id < g.baseLen {
		g = g.base
	}
	return g.local(id - g.baseLen)
}

// mutableVertex returns a vertex this graph may mutate in place, copying
// a frozen base vertex into the redirect overlay on first access (the copy
// shares the base vertex's label). Only the recorder's EXIST-span closing
// uses it.
func (g *Graph) mutableVertex(id int) *Vertex {
	if g.sealed {
		panic("provenance: mutate vertex of sealed graph")
	}
	if id >= g.baseLen {
		return g.local(id - g.baseLen)
	}
	return g.redirect.Own(id, func(v *Vertex) *Vertex {
		if v == nil {
			v = g.recorded(id)
		}
		cp := *v
		return &cp
	})
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

// own returns the vertex a link (ID + 1) into this graph's own slab names.
func (g *Graph) own(link int32) *Vertex { return g.local(int(link) - 1 - g.baseLen) }

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
			v := gr.own(a)
			if v.At.Seq == b.Seq {
				return v.ID
			}
			a = v.prev + 1
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

// indexAppear enters a just-recorded APPEAR into the tuple index and makes
// it the head of its cause (a DERIVE or INSERT, or -1).
func (g *Graph) indexAppear(ap *Vertex, cause int) {
	tk, id := ap.TupleRef(), int32(ap.ID)+1
	ends := g.byTuple[tk]
	ap.prev, ends.newest[newestAppear] = ends.newest[newestAppear]-1, id
	ends.lab = ap.label
	g.byTuple[tk] = ends

	switch {
	case cause >= g.baseLen:
		g.local(cause - g.baseLen).up = id
	case cause >= 0:
		if g.headOver == nil {
			g.headOver = map[int]int32{}
		}
		g.headOver[cause] = id
	}
}

// indexDisappear makes a just-recorded DISAPPEAR its tuple's newest.
func (g *Graph) indexDisappear(d *Vertex) {
	tk := d.TupleRef()
	ends := g.byTuple[tk]
	ends.newest[newestDisappear], ends.lab = int32(d.ID)+1, d.label
	g.byTuple[tk] = ends
}

// linkTrigger puts a just-recorded DERIVE on top of the list its trigger
// child (an APPEAR or EXIST) set off: the child's own if this graph
// recorded it, the overflow's if a base did.
func (g *Graph) linkTrigger(child int, d *Vertex) {
	id := int32(d.ID) + 1
	if child >= g.baseLen {
		c := g.local(child - g.baseLen)
		d.older, c.up = c.up, id
		return
	}
	if g.trigOver == nil {
		g.trigOver = map[int]int32{}
	}
	d.older, g.trigOver[child] = g.trigOver[child], id
}

// triggered appends the DERIVEs the vertex triggered, in recording order:
// the graph's that owns the vertex, then each fork's down the chain, each
// link's own threaded newest-first and turned around.
func (g *Graph) triggered(id int, out []int) []int {
	var d int32
	if id >= g.baseLen {
		d = g.local(id - g.baseLen).up
	} else {
		out = g.base.triggered(id, out)
		d = g.trigOver[id]
	}
	from := len(out)
	for ; d != 0; d = g.own(d).older {
		out = append(out, int(d)-1)
	}
	slices.Reverse(out[from:])
	return out
}
