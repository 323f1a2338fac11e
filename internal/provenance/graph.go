// Package provenance implements the temporal provenance graph of DTaP as
// used by DiffProv (§3.2 of the paper): an append-only DAG over seven
// vertex types (INSERT, DELETE, EXIST, DERIVE, UNDERIVE, APPEAR,
// DISAPPEAR) that records the causal connections between the states and
// events of an NDlog execution, plus tree projection and seed finding.
package provenance

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/cow"
	"repro/internal/ndlog"
)

// VertexType enumerates the seven vertex types of §3.2.
type VertexType uint8

// The vertex types. Positive vertexes describe tuples coming into being;
// negative vertexes (DELETE, UNDERIVE, DISAPPEAR) are their counterparts.
const (
	Insert VertexType = iota
	Delete
	Exist
	Derive
	Underive
	Appear
	Disappear
)

var vertexTypeNames = [...]string{
	Insert: "INSERT", Delete: "DELETE", Exist: "EXIST", Derive: "DERIVE",
	Underive: "UNDERIVE", Appear: "APPEAR", Disappear: "DISAPPEAR",
}

func (t VertexType) String() string {
	if int(t) < len(vertexTypeNames) {
		return vertexTypeNames[t]
	}
	return fmt.Sprintf("VERTEX(%d)", uint8(t))
}

// Vertex is one vertex of the provenance graph. Children point at direct
// causes; the graph is acyclic because children always precede parents in
// creation order. Vertexes live by value in their graph's slab (see Graph)
// at an address that never moves, so a *Vertex stays valid for as long as
// anything holds it. The layout is packed to 112 bytes — a slab chunk's
// unused slots cost what a vertex does — and TestVertexSize pins it.
type Vertex struct {
	// label is what the vertex is about, shared with every other vertex
	// about the same tuple on the same node; Node and Tuple read through it.
	*label
	ID   int
	Type VertexType
	// Open, on an EXIST vertex, reports that the tuple is still live: its
	// existence interval [At, Span.To) has no end yet.
	Open bool
	// aggRemove marks an aggregate DERIVE that removes its contributor from
	// the group (see prev): folds subtract it, and it is no cause.
	aggRemove bool
	// nkids counts the children kids points at; longKids marks a list too
	// long for it, whose length is the arena word before kids (putKids).
	nkids    uint8
	aggCount int32  // contributors of an aggregate DERIVE, see prev
	Rule     string // rule name, for DERIVE/UNDERIVE

	// At is the event time of a point vertex and, for an EXIST vertex, the
	// stamp that opened its existence interval (its APPEAR's At).
	At ndlog.Stamp
	// Span holds the end of an EXIST vertex's existence interval
	// [At, Span.To), meaningful once Open is false.
	Span struct{ To ndlog.Stamp }

	// kids points at the first of the IDs of the direct causes of this
	// vertex, in the graph's children arena (read with Children).
	kids *int
	// Trigger, for DERIVE vertexes, is the index into Children of the
	// precondition that appeared last and thus triggered the rule
	// (-1 elsewhere). The seed-finding procedure of §4.2 follows these.
	Trigger int

	// fp is the Merkle-style structural hash of the subtree rooted here,
	// computed once by add() (see fingerprint.go); never 0.
	fp uint64

	// Delta-chain annotation for aggregate DERIVE vertexes (aggCount > 0,
	// the running contributor count): prev is the vertex ID of the
	// previous head's DERIVE (-1 for the group's first) and aggContrib that
	// of the new contributor's APPEAR (-1 if unresolved). ChildrenOf folds
	// the chain into the full contributor list on demand; recorded Children
	// stay O(1) per update. On an APPEAR, prev is the tuple's previous
	// APPEAR recorded by the same graph (-1: its first; see Graph.byTuple).
	prev, aggContrib int32

	// Reverse edges (vertex ID + 1, 0: none; DESIGN.md §24), written only by
	// the graph that recorded this vertex, before it is sealed. On a DERIVE
	// or INSERT up is the head tuple's APPEAR; on an APPEAR or EXIST it is
	// the newest DERIVE the vertex triggered, and that DERIVE's older the
	// one the same vertex triggered before it.
	up, older int32
}

// label is what a vertex is about: a tuple on a node. Up to five vertexes
// of one tuple occurrence (INSERT, APPEAR, EXIST, DISAPPEAR, DELETE) and
// every DERIVE and UNDERIVE of it there name the same one, so they share
// it: a graph hands each (node, tuple) one label (Graph.labelOf) and never
// writes it again. A fork reads its base's labels.
type label struct {
	Node  string
	Tuple ndlog.Tuple
	// key is Tuple's canonical key: the string whoever reported the vertex
	// (the engine, the Builder) computed when the row or occurrence was
	// created. Labels share it with the engine's rows; the indexes and
	// fingerprints below use it and never re-encode Tuple.
	key string
}

// noLabel is the label of a vertex handed to add without one.
var noLabel label

// labelSlab hands out labels from chunks it never reallocates, so a *label
// stays valid for as long as a vertex holds it. Sized as the engine's
// slabs are (DESIGN.md §23): a new chunk holds half as many labels as were
// handed out so far, at least labelChunkMin and at most labelChunkMax, so
// past the first chunk the slack is at most a third of what is allocated.
type labelSlab struct {
	cur  []label
	used int
}

// A narrow fork gives a few tuples their first label; 56 labels of 72
// bytes are 4 032 bytes, in the 4 096-byte size class.
const labelChunkMin, labelChunkMax = 4, 56

// take returns a label for the tuple with the given key on the node.
func (s *labelSlab) take(node string, t ndlog.Tuple, key string) *label {
	if len(s.cur) == cap(s.cur) {
		s.cur = make([]label, 0, min(max(s.used/2, labelChunkMin), labelChunkMax))
	}
	s.cur = append(s.cur, label{Node: node, Tuple: t, key: key})
	s.used++
	return &s.cur[len(s.cur)-1]
}

// longKids is the nkids of a children list of that length or longer: its
// length is stored in the arena word before it.
const longKids = math.MaxUint8

// Children returns the IDs of the direct causes of the vertex as recorded:
// a window into the graph's children arena whose capacity is its length,
// so that a consumer's append copies instead of overwriting the next
// vertex's. It must not be written to.
func (v *Vertex) Children() []int {
	n := int(v.nkids)
	if n == longKids {
		n = *(*int)(unsafe.Add(unsafe.Pointer(v.kids), -int(unsafe.Sizeof(0))))
	}
	return unsafe.Slice(v.kids, n)
}

// kidsWords is the arena room n children take: n, and one word more for
// the length of a list nkids cannot count.
func kidsWords(n int) int {
	if n >= longKids {
		return n + 1
	}
	return n
}

// putKids appends children to dst, which has room for kidsWords of them,
// and points v at them.
func (v *Vertex) putKids(dst, children []int) []int {
	n := len(children)
	if n == 0 {
		return dst
	}
	if n >= longKids {
		dst = append(dst, n)
	}
	at := len(dst)
	dst = append(dst, children...)
	v.kids, v.nkids = &dst[at], uint8(min(n, longKids))
	return dst
}

// detached returns a copy of the vertex that shares no storage with the
// graph's vertex slab or children arena nor — its label copied, tuple and
// key cloned — with the labels of the graph or the args and key chunks of
// the engine that reported it (Tree.Detach). labels maps each label
// already copied to its copy, so the copies share as the originals do.
func (v *Vertex) detached(labels map[*label]*label) *Vertex {
	cp := *v
	l, ok := labels[v.label]
	if !ok {
		l = &label{Node: v.Node, Tuple: v.Tuple.Clone(), key: strings.Clone(v.key)}
		labels[v.label] = l
	}
	cp.label = l
	kids := v.Children()
	cp.putKids(make([]int, 0, kidsWords(len(kids))), kids)
	return &cp
}

// Label renders the vertex without timestamps; the naive tree diff
// (§2.5) compares vertexes by label.
func (v *Vertex) Label() string {
	var sb strings.Builder
	sb.WriteString(v.Type.String())
	sb.WriteByte('(')
	sb.WriteString(v.Node)
	sb.WriteString(", ")
	sb.WriteString(v.Tuple.String())
	if v.Rule != "" {
		sb.WriteString(", ")
		sb.WriteString(v.Rule)
	}
	sb.WriteByte(')')
	return sb.String()
}

// TupleRef identifies the vertex's tuple on its node by the carried key,
// for callers that index vertexes by tuple.
func (v *Vertex) TupleRef() ndlog.TupleRef { return ndlog.TupleRef{Node: v.Node, Key: v.key} }

func (v *Vertex) String() string {
	if v.Type == Exist {
		to := "now"
		if !v.Open {
			to = v.Span.To.String()
		}
		return fmt.Sprintf("EXIST(%s, %s, [%s, %s))", v.Node, v.Tuple, v.At, to)
	}
	s := v.Label()
	return fmt.Sprintf("%s@%s", s, v.At)
}

// Graph is an append-only temporal provenance graph, stored flat: the
// vertexes it recorded sit by value in slab chunks and their children in
// one []int arena, so recording a vertex allocates nothing but amortised
// chunk growth, and a CoW fork shares its sealed base as a prefix it
// never copies (see cow.go and DESIGN.md §22).
type Graph struct {
	// chunks hold the n vertexes this graph recorded itself (IDs baseLen
	// and up). A chunk is never reallocated, so vertex addresses are
	// stable; locate maps a local index to its chunk and slot.
	chunks [][]Vertex
	n      int
	// kids is the children arena's current block; a full one is left to
	// the vertexes that point into it.
	kids []int
	// labels hands out the labels this graph gives the tuples it is the
	// first to record (labelOf).
	labels labelSlab

	// byDerive resolves the engine's derivation and underivation IDs (one
	// dense counter) to their DERIVE / UNDERIVE vertexes: byDerive[id -
	// firstDerive] is the vertex ID + 1, or 0 where this graph recorded
	// none. A fork's firstDerive is where its base's index ends, a root's
	// the first ID it is told; callbacks come in arrival order, so an ID
	// below it (a derivation in flight at the fork) goes to lateDerive.
	byDerive    []int32
	firstDerive int64
	lateDerive  map[int64]int32
	// byTuple is the one tuple-keyed index: {node, tuple key} to the
	// tuple's label and the newest APPEAR and DISAPPEAR this graph recorded
	// for it. Earlier APPEARs hang off the newest by their prev links
	// (appearAt walks them for a body reference); its open EXIST is the
	// newest APPEAR's (openExist).
	byTuple map[ndlog.TupleRef]tupleEnds
	// headOver and trigOver are a fork's overflow: the up links it owes
	// vertexes of its sealed base (a base cause's head APPEAR, the newest of
	// the fork's DERIVEs a base vertex triggered), keyed by their IDs. Made
	// on first use: most forks never need headOver.
	headOver, trigOver map[int]int32

	// foldMemo caches folded aggregate contributor lists, keyed by the
	// chain head's vertex ID: repeated Tree projections of the same
	// aggregate head (every diagnosis round, every treediff) pay the
	// O(k) chain walk once. Not by fingerprint: two chains with the same
	// labels — a group a trial empties and fills again — hash alike, but
	// each folds its own occurrences. Entries are immutable once stored.
	// Guarded by foldMu because trees may be projected from shared graphs
	// concurrently. Never chained through base: Fork snapshots the base's
	// memo (IDs are stable along the chain), so each graph's memo is
	// self-contained.
	foldMu   sync.Mutex
	foldMemo map[int][]int

	// Copy-on-write state (see cow.go). A CoW fork keeps the frozen base
	// graph it shadows: local vertexes occupy IDs baseLen and up, and
	// redirect holds fork-private copies of base vertexes whose Span was
	// closed locally.
	base     *Graph
	baseLen  int
	redirect cow.Overlay[int, *Vertex]
	sealed   bool
}

// NewGraph creates an empty provenance graph.
func NewGraph() *Graph {
	return &Graph{byTuple: map[ndlog.TupleRef]tupleEnds{}, foldMemo: map[int][]int{}}
}

// NumVertexes returns the number of vertexes in the graph, including
// those inherited from a frozen base.
func (g *Graph) NumVertexes() int { return g.baseLen + g.n }

// Vertex returns the vertex with the given ID.
func (g *Graph) Vertex(id int) *Vertex {
	if id < 0 || id >= g.NumVertexes() {
		return nil
	}
	return g.vertex(id)
}

// Slab chunk sizes: chunkFirst slots, then doubling from chunkMin up to
// chunkMax and chunkMax from there on — 16, 8, 16, 32, …, 512, 512, ….
// A narrow counterfactual fork records 16-34 vertexes and must not pay
// for a wide one's chunk (nor double on its 17th vertex); a wide one
// records thousands and must not leave half a doubled chunk empty.
const (
	chunkFirst = 16
	chunkMin   = 8
	chunkMax   = 512
	cappedFrom = 7                                // first chunk of chunkMax slots: chunkMin<<(cappedFrom-1) == chunkMax
	cappedAt   = chunkFirst + chunkMax - chunkMin // the local index it starts at: 16 + (8 + 16 + … + 256)

	kidsMin, kidsMax = 32, 4096 // children-arena blocks double from kidsMin to kidsMax ints
)

// locate maps a local vertex index to its chunk, the slot within it and
// the chunk's size.
func locate(i int) (chunk, slot, size int) {
	switch {
	case i < chunkFirst:
		return 0, i, chunkFirst
	case i >= cappedAt:
		i -= cappedAt
		return cappedFrom + i/chunkMax, i % chunkMax, chunkMax
	}
	// Doubling chunk c >= 1 starts at chunkFirst + chunkMin*(2^(c-1) - 1).
	i -= chunkFirst - chunkMin
	c := bits.Len(uint(i / chunkMin))
	return c, i - chunkMin<<(c-1), chunkMin << (c - 1)
}

// local returns the i-th vertex this graph recorded itself.
func (g *Graph) local(i int) *Vertex {
	c, slot, _ := locate(i)
	return &g.chunks[c][slot]
}

// add records v with the given children and returns its slab slot. Both
// are copied (children into the arena), so callers build them on their
// stack. A vertex handed over without a label gets the empty one.
func (g *Graph) add(v Vertex, children []int) *Vertex {
	if g.sealed {
		panic("provenance: record into sealed graph (fork it instead)")
	}
	v.ID = g.NumVertexes()
	if v.Type != Derive {
		v.Trigger = -1
	}
	if v.label == nil {
		v.label = &noLabel
	}
	if n := kidsWords(len(children)); n > 0 {
		if len(g.kids)+n > cap(g.kids) {
			g.kids = make([]int, 0, max(n, min(2*cap(g.kids), kidsMax), kidsMin))
		}
		g.kids = v.putKids(g.kids, children)
	}
	// Children are complete and strictly precede v: the hash is final.
	v.fp = g.fingerprintOf(&v)
	c, slot, size := locate(g.n)
	if c == len(g.chunks) {
		g.chunks = append(g.chunks, make([]Vertex, size))
	}
	g.chunks[c][slot] = v
	g.n++
	return &g.chunks[c][slot]
}

// AppearVertexes returns the APPEAR vertex IDs for the exact tuple on the
// node, in chronological order.
func (g *Graph) AppearVertexes(node string, t ndlog.Tuple) (out []int) {
	t.WithKey(func(key []byte) { out = g.appearsOf(node, key, nil) })
	return out
}

// appearsOf appends the APPEAR IDs of the tuple with the given canonical
// key (as bytes: a lookup builds no string) on the node, deepest base first.
func (g *Graph) appearsOf(node string, key []byte, out []int) []int {
	if g.base != nil {
		out = g.base.appearsOf(node, key, out)
	}
	from := len(out)
	for a := g.byTuple[ndlog.TupleRef{Node: node, Key: string(key)}].newest[newestAppear]; a != 0; a = g.own(a).prev + 1 {
		out = append(out, int(a)-1)
	}
	slices.Reverse(out[from:])
	return out
}

// FindAppears returns the APPEAR vertexes on a node, over a table,
// matching the predicate, in recording order. It is the graph's query
// entry point: "the packet that arrived at web server 2" is an APPEAR. It
// scans the chain's vertexes in ID order, which is recording order: IDs
// only grow along the chain.
func (g *Graph) FindAppears(node, table string, pred func(ndlog.Tuple) bool) []*Vertex {
	var out []*Vertex
	g.Vertexes(func(v *Vertex) {
		if v.Type == Appear && v.Node == node && v.Tuple.Table == table && (pred == nil || pred(v.Tuple)) {
			out = append(out, v)
		}
	})
	return out
}

// LastAppear returns the most recent APPEAR of the tuple on the node, or
// nil.
func (g *Graph) LastAppear(node string, t ndlog.Tuple) *Vertex {
	id := -1
	t.WithKey(func(key []byte) {
		for gr := g; gr != nil && id < 0; gr = gr.base {
			id = int(gr.byTuple[ndlog.TupleRef{Node: node, Key: string(key)}].newest[newestAppear]) - 1
		}
	})
	if id < 0 {
		return nil
	}
	return g.vertex(id)
}

// TriggerParents returns the DERIVE vertexes that were triggered by the
// given vertex (the derivations for which it was the last precondition to
// appear). Following these walks a derivation chain from a seed upward.
func (g *Graph) TriggerParents(id int) []int {
	if v := g.Vertex(id); v == nil || v.Type != Appear && v.Type != Exist {
		return nil
	}
	return g.triggered(id, nil)
}

// HeadAppear returns the APPEAR vertex of the head tuple produced by the
// given DERIVE (or following a base INSERT), or -1.
func (g *Graph) HeadAppear(id int) int {
	if v := g.Vertex(id); v == nil || v.Type != Derive && v.Type != Insert {
		return -1
	}
	for gr := g; ; gr = gr.base {
		if id >= gr.baseLen {
			return int(gr.local(id-gr.baseLen).up) - 1
		}
		if a := gr.headOver[id]; a != 0 {
			return int(a) - 1
		}
	}
}

// ExistOf returns the EXIST vertex opened by the given APPEAR, or -1 for
// event tuples (which never exist as state). The recorder adds an EXIST
// right after its APPEAR and nowhere else, so it is the next vertex or
// there is none.
func (g *Graph) ExistOf(appearID int) int {
	if e := appearID + 1; appearID >= 0 && e < g.NumVertexes() && g.vertex(e).Type == Exist {
		return e
	}
	return -1
}

// openExist returns the tuple's currently-open EXIST vertex, or -1: the
// one its latest APPEAR opened, until a DISAPPEAR closes it.
func (g *Graph) openExist(tk ndlog.TupleRef) int {
	if e := g.ExistOf(g.newest(tk, newestAppear)); e >= 0 && g.vertex(e).Open {
		return e
	}
	return -1
}

// Vertexes calls fn for every vertex in creation order.
func (g *Graph) Vertexes(fn func(*Vertex)) {
	for i, n := 0, g.NumVertexes(); i < n; i++ {
		fn(g.vertex(i))
	}
}

// ShardSize returns the size of the node's provenance shard (§4.8): the
// number of vertexes whose Node it is. The shards partition the graph.
func (g *Graph) ShardSize(node string) int {
	n := 0
	g.Vertexes(func(v *Vertex) {
		if v.Node == node {
			n++
		}
	})
	return n
}

// AggDelta reports a vertex's aggregate delta-chain annotation: the
// vertex ID of the previous head's DERIVE (-1 for the first) and the
// running contributor count. ok is false for non-aggregate vertexes.
func (g *Graph) AggDelta(id int) (prev int, count int64, ok bool) {
	v := g.Vertex(id)
	if v == nil || v.aggCount == 0 {
		return 0, 0, false
	}
	return int(v.prev), int64(v.aggCount), true
}

// ChildrenOf returns the causal children of a vertex as consumers should
// see them: for aggregate DERIVE vertexes recorded as deltas, the chain
// is folded into the full contributor list (all of the group's
// contributors in appearance order); for everything else it is the
// recorded Children slice. The returned slice must not be written to; its
// capacity is its length, so appending to it copies.
func (g *Graph) ChildrenOf(id int) []int {
	v := g.Vertex(id)
	if v == nil {
		return nil
	}
	// A link whose recorded children number its count (a chain's count-1
	// start) already carries the full list in Children.
	if kids := v.Children(); v.aggCount == 0 || len(kids) == int(v.aggCount) {
		return kids
	}
	return g.foldAgg(v)
}

// foldAgg reconstructs the full contributor list of an aggregate head by
// walking the delta chain backwards and replaying it forwards — a link
// adds its contributor, a removal link takes it out — memoizing the result
// per chain head. The walk stops early at the first predecessor whose fold
// is already memoized, so across the queries a diagnosis issues each chain
// link is visited O(1) times amortized.
func (g *Graph) foldAgg(v *Vertex) []int {
	g.foldMu.Lock()
	defer g.foldMu.Unlock()
	if out, ok := g.foldMemo[v.ID]; ok {
		return out
	}
	var prefix []int
	var rev []*Vertex // links, newest first
	for cur := v; ; {
		rev = append(rev, cur)
		if cur.prev < 0 || int(cur.prev) >= g.NumVertexes() {
			break
		}
		prev := g.vertex(int(cur.prev))
		if out, ok := g.foldMemo[prev.ID]; ok {
			prefix = out
			break
		}
		if kids := prev.Children(); prev.aggCount > 0 && len(kids) == int(prev.aggCount) {
			prefix = kids // a count-1 start: its one child is the list
			break
		}
		cur = prev
	}
	out := make([]int, 0, len(prefix)+len(rev))
	out = append(out, prefix...)
	for i := len(rev) - 1; i >= 0; i-- {
		out = rev[i].foldStep(out)
	}
	g.foldMemo[v.ID] = out
	return out
}

// foldStep applies an aggregate link to a contributor list it may edit in
// place: it appends the link's contributor, or removes it for a removal
// link.
func (v *Vertex) foldStep(list []int) []int {
	c := int(v.aggContrib)
	switch {
	case c < 0:
		return list
	case v.aggRemove:
		if i := slices.Index(list, c); i >= 0 {
			return slices.Delete(list, i, i+1)
		}
		return list
	}
	return append(list, c)
}
