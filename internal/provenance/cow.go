package provenance

import "repro/internal/ndlog"

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
//     baseLen), and starts every index empty: writes land locally,
//     reads walk the base chain in shadowing order.
//   - The single in-place mutation the recorder ever performs — closing
//     an EXIST vertex's Span when its tuple dies — goes through
//     mutableVertex, which copies the base vertex into the fork's
//     redirect map. Fingerprints exclude Span, so the copy keeps its
//     cached fp.
//
// List-valued index entries (appearsByTuple, appearsByTable,
// triggerParents) are append-only, so a fork's local entry holds only
// the IDs the fork itself appended (a tail): reads concatenate the
// chain oldest-first instead of the append copying the base's list —
// a hot table-level entry can index the whole base run, and one
// counterfactual append must not pay for re-copying it. No index has
// deletions: which EXIST is open is read off the vertexes (openExist).
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
		eagerAgg:      r.eagerAgg,
	}
}

// Fork returns a graph that keeps growing independently of the sealed
// receiver, in O(1) + O(fold memo): empty overlay maps with the receiver
// as their read-through base. Only the fold memo is copied eagerly — it
// is written during reads (tree projection), so chaining it through the
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
	f := emptyGraph()
	f.base, f.baseLen = g, g.NumVertexes()
	f.firstDerive = g.firstDerive + int64(len(g.byDerive))
	// Under the lock because sibling forks and readers of the shared base
	// may fold concurrently.
	g.foldMu.Lock()
	f.foldMemo = make(map[uint64][]int, len(g.foldMemo))
	for k, ids := range g.foldMemo {
		f.foldMemo[k] = ids
	}
	g.foldMu.Unlock()
	return f
}

// vertex returns the vertex with the given ID, resolving through the
// fork-local tail, the redirect overlay, and the frozen base chain. The
// caller guarantees 0 <= id < NumVertexes().
func (g *Graph) vertex(id int) *Vertex {
	if id >= g.baseLen {
		return g.local(id - g.baseLen)
	}
	if v, ok := g.redirect[id]; ok {
		return v
	}
	return g.base.vertex(id)
}

// mutableVertex returns a vertex this graph may mutate in place, copying
// a frozen base vertex into the redirect overlay on first access. Only
// the recorder's EXIST-span closing uses it.
func (g *Graph) mutableVertex(id int) *Vertex {
	if g.sealed {
		panic("provenance: mutate vertex of sealed graph")
	}
	if id >= g.baseLen {
		return g.local(id - g.baseLen)
	}
	if v, ok := g.redirect[id]; ok {
		return v
	}
	cp := *g.base.vertex(id)
	if g.redirect == nil {
		g.redirect = map[int]*Vertex{}
	}
	g.redirect[id] = &cp
	return &cp
}

// Map selectors: top-level functions (no closure allocation) that let the
// chain walkers below address one index map per call site.

func selAppearByRef(g *Graph) map[ndlog.BodyRef]int        { return g.appearByRef }
func selLastDisappear(g *Graph) map[ndlog.TupleRef]int     { return g.lastDisappear }
func selHeadAppear(g *Graph) map[int]int                   { return g.headAppear }
func selAppearsByTuple(g *Graph) map[ndlog.TupleRef]idList { return g.appearsByTuple }
func selAppearsByTable(g *Graph) map[tableRef]idList       { return g.appearsByTable }
func selTriggerParents(g *Graph) map[int]idList            { return g.triggerParents }

// lookup resolves a vertex lookup through the chain: the topmost link
// that has the key shadows the ones below.
func lookup[K comparable](g *Graph, sel func(*Graph) map[K]int, key K) (int, bool) {
	for gr := g; gr != nil; gr = gr.base {
		if v, ok := sel(gr)[key]; ok {
			return v, true
		}
	}
	return 0, false
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
		g.byDerive = append(g.byDerive, make([]int32, grow)...)
	}
	g.byDerive[off] = int32(vid) + 1
}

// idList is one key's entry in a list-valued index: append-only, with the
// first ID inline — most keys (a tuple that appeared once, a vertex that
// triggered one derivation) never get a second, and then the entry costs
// no allocation. A key is in the map only once it has a first ID.
type idList struct {
	first int
	rest  []int
}

// last returns the newest ID of a list entry.
func (l idList) last() int {
	if n := len(l.rest); n > 0 {
		return l.rest[n-1]
	}
	return l.first
}

// forEachIn visits a key's effective list entry in insertion order. A
// fork's local entry is a tail appended after everything in its base (IDs
// only grow along the chain), so the walk runs deepest-base-first.
func forEachIn[K comparable](g *Graph, sel func(*Graph) map[K]idList, key K, fn func(id int)) {
	if g.base != nil {
		forEachIn(g.base, sel, key, fn)
	}
	if l, ok := sel(g)[key]; ok {
		fn(l.first)
		for _, id := range l.rest {
			fn(id)
		}
	}
}

// lastIn returns the newest ID in a key's effective list entry, or -1.
// The topmost chain link with a local entry holds the most recent append.
func lastIn[K comparable](g *Graph, sel func(*Graph) map[K]idList, key K) int {
	for gr := g; gr != nil; gr = gr.base {
		if l, ok := sel(gr)[key]; ok {
			return l.last()
		}
	}
	return -1
}

// appendTo appends id to a key's local list entry. The base chain's
// entries stay untouched and are concatenated on read (forEachIn) —
// appends are hot (one per APPEAR) and must not re-copy a table-level
// index of the whole frozen base.
func appendTo[K comparable](g *Graph, sel func(*Graph) map[K]idList, key K, id int) {
	m := sel(g)
	if l, ok := m[key]; ok {
		l.rest = append(l.rest, id)
		m[key] = l
	} else {
		m[key] = idList{first: id}
	}
}
