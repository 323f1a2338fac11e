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
//     fork-local vertexes in its own arena tail (IDs continue from
//     baseLen), and starts every index map empty: writes land locally,
//     reads walk the base chain in shadowing order.
//   - The single in-place mutation the recorder ever performs — closing
//     an EXIST vertex's Span when its tuple dies — goes through
//     mutableVertex, which copies the base vertex into the fork's
//     redirect map. Fingerprints exclude Span, so the copy keeps its
//     cached fp.
//
// Slice-valued index entries (appearsByTuple, appearsByTable,
// triggerParents) are append-only, so a fork's local entry holds only
// the IDs the fork itself appended (a tail): reads concatenate the
// chain oldest-first instead of the append copying the base's slice —
// a hot table-level entry can index the whole base run, and one
// counterfactual append must not pay for re-copying it. openExist is
// the only map with deletions; forks tombstone with -1 (vertex IDs are
// never negative).
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
// pendingDelete) is copied as-is, and is -1 between work items;
// underiveVertex reads walk the base chain. Forking an unsealed recorder
// is a bug and panics (see Graph.Fork).
func (r *Recorder) Fork() *Recorder {
	if !r.sealed {
		panic("provenance: Fork of unsealed recorder")
	}
	return &Recorder{
		prog:           r.prog,
		graph:          r.graph.Fork(),
		pendingInsert:  r.pendingInsert,
		pendingDelete:  r.pendingDelete,
		underiveVertex: map[int64]int{},
		eagerAgg:       r.eagerAgg,
		base:           r,
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
// still append to the arena the fork would share — and panics.
func (g *Graph) Fork() *Graph {
	if !g.sealed {
		panic("provenance: Fork of unsealed graph")
	}
	f := emptyGraph()
	f.base, f.baseLen = g, g.NumVertexes()
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
		return g.vertexes[id-g.baseLen]
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
		return g.vertexes[id-g.baseLen]
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

func selAppearByRef(g *Graph) map[ndlog.BodyRef]int       { return g.appearByRef }
func selOpenExist(g *Graph) map[ndlog.TupleRef]int        { return g.openExist }
func selExistByRef(g *Graph) map[ndlog.BodyRef]int        { return g.existByRef }
func selLastDisappear(g *Graph) map[ndlog.TupleRef]int    { return g.lastDisappear }
func selHeadAppear(g *Graph) map[int]int                  { return g.headAppear }
func selExistOf(g *Graph) map[int]int                     { return g.existOf }
func selAppearsByTuple(g *Graph) map[ndlog.TupleRef][]int { return g.appearsByTuple }
func selAppearsByTable(g *Graph) map[tableRef][]int       { return g.appearsByTable }
func selTriggerParents(g *Graph) map[int][]int            { return g.triggerParents }

// lookup resolves a vertex lookup through the chain. A negative stored
// value is a deletion tombstone (only openExist stores them; real vertex
// IDs are never negative).
func lookup[K comparable](g *Graph, sel func(*Graph) map[K]int, key K) (int, bool) {
	for gr := g; gr != nil; gr = gr.base {
		if v, ok := sel(gr)[key]; ok {
			if v < 0 {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// deriveVertex resolves an engine derivation ID to its DERIVE vertex.
func (g *Graph) deriveVertex(id int64) (int, bool) {
	for gr := g; gr != nil; gr = gr.base {
		if v, ok := gr.byDerive[id]; ok {
			return v, true
		}
	}
	return 0, false
}

// deleteOpenExist removes a tuple's open-EXIST entry: deleted outright at
// a chain root, tombstoned in a fork so the base entry stays shadowed.
func (g *Graph) deleteOpenExist(tk ndlog.TupleRef) {
	if g.base != nil {
		g.openExist[tk] = -1
	} else {
		delete(g.openExist, tk)
	}
}

// forEachIn visits a key's effective slice entry in insertion order. A
// fork's local entry is a tail appended after everything in its base (IDs
// only grow along the chain), so the walk runs deepest-base-first.
func forEachIn[K comparable](g *Graph, sel func(*Graph) map[K][]int, key K, fn func(id int)) {
	if g.base != nil {
		forEachIn(g.base, sel, key, fn)
	}
	for _, id := range sel(g)[key] {
		fn(id)
	}
}

// lastIn returns the newest ID in a key's effective slice entry, or -1.
// The topmost chain link with a non-empty local entry holds the most
// recent append.
func lastIn[K comparable](g *Graph, sel func(*Graph) map[K][]int, key K) int {
	for gr := g; gr != nil; gr = gr.base {
		if ids := sel(gr)[key]; len(ids) > 0 {
			return ids[len(ids)-1]
		}
	}
	return -1
}

// appendTo appends id to a key's local slice entry. The base chain's
// entries stay untouched and are concatenated on read (forEachIn) —
// appends are hot (one per APPEAR) and must not re-copy a table-level
// index of the whole frozen base.
func appendTo[K comparable](g *Graph, sel func(*Graph) map[K][]int, key K, id int) {
	m := sel(g)
	m[key] = append(m[key], id)
}

// underiveOf resolves an engine underivation ID through the recorder's
// frozen-base chain (the map has no deletions, so absence means absence).
func (r *Recorder) underiveOf(id int64) (int, bool) {
	for rr := r; rr != nil; rr = rr.base {
		if v, ok := rr.underiveVertex[id]; ok {
			return v, true
		}
	}
	return 0, false
}
