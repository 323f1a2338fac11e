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

// Vertex is one vertex of the provenance graph as a reader sees it. The
// graph stores no vertexes: it stores one record per derivation and one
// per tuple occurrence (see Graph), and a read synthesises the vertex from
// them once per graph link and caches it, so a *Vertex from Graph.Vertex
// stays valid, and the same, for as long as anything holds it. Children
// point at direct causes; the graph is acyclic because children always
// precede parents in creation order.
type Vertex struct {
	// label is what the vertex is about, shared with every other vertex
	// about the same tuple on the same node; Node and Tuple read through it.
	*label
	ID   int
	Type VertexType
	// Open, on an EXIST vertex, reports that the tuple is still live: its
	// existence interval [At, Span.To) has no end yet.
	Open bool
	// nkids counts the children kids points at; longKids marks a list too
	// long for it, whose length is the arena word before kids (putKids).
	nkids uint8
	Rule  string // rule name, for DERIVE/UNDERIVE

	// At is the event time of a point vertex and, for an EXIST vertex, the
	// stamp that opened its existence interval (its APPEAR's At).
	At ndlog.Stamp
	// Span holds the end of an EXIST vertex's existence interval
	// [At, Span.To), meaningful once Open is false.
	Span struct{ To ndlog.Stamp }

	// kids points at the first of the IDs of the direct causes of this
	// vertex: a derivation's window into its graph's children arena, or kid
	// (read with Children).
	kids *int
	// Trigger, for DERIVE vertexes, is the index into Children of the
	// precondition that appeared last and thus triggered the rule
	// (-1 elsewhere). The seed-finding procedure of §4.2 follows these.
	Trigger int

	// fp is the Merkle-style structural hash of the subtree rooted here,
	// computed when the vertex was recorded (see fingerprint.go); never 0.
	fp uint64
	// kid is the one cause of a vertex about a tuple occurrence (an
	// APPEAR's, EXIST's or DISAPPEAR's), which kids points at.
	kid int
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

// labelSlab hands out labels from chunks it never reallocates, so a *label
// stays valid for as long as a record holds it. Sized as the engine's
// slabs are (DESIGN.md §2): a new chunk holds half as many labels as were
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
// a window into the graph's children arena (or the vertex's one cause)
// whose capacity is its length, so that a consumer's append copies instead
// of overwriting the next vertex's. It must not be written to.
func (v *Vertex) Children() []int { return kidsOf(v.kids, v.nkids) }

// kidsOf returns the children list kids and nkids name.
func kidsOf(kids *int, nkids uint8) []int {
	n := int(nkids)
	if n == longKids {
		n = *(*int)(unsafe.Add(unsafe.Pointer(kids), -int(unsafe.Sizeof(0))))
	}
	return unsafe.Slice(kids, n)
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
// and returns it with the window they occupy.
func putKids(dst, children []int) (_ []int, kids *int, nkids uint8) {
	n := len(children)
	if n == 0 {
		return dst, nil, 0
	}
	if n >= longKids {
		dst = append(dst, n)
	}
	at := len(dst)
	dst = append(dst, children...)
	return dst, &dst[at], uint8(min(n, longKids))
}

// setKid makes c, unless it is -1 (an unresolved cause), the vertex's one
// child.
func (v *Vertex) setKid(c int) {
	if c >= 0 {
		v.kid, v.kids, v.nkids = c, &v.kid, 1
	}
}

// detached returns a copy of the vertex that shares no storage with the
// graph's records, cache or children arena nor — its label copied, tuple
// and key cloned — with the labels of the graph or the args and key chunks
// of the engine that reported it (Tree.Detach). labels maps each label
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
	_, cp.kids, cp.nkids = putKids(make([]int, 0, kidsWords(len(kids))), kids)
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

// derivation is the record of one DERIVE vertex: all of it that is not
// its label's. 72 bytes (TestRecordSizes).
type derivation struct {
	lab  *label
	rule *string // the rule's name, the program's own string
	at   ndlog.Stamp
	// kids and nkids name the recorded children in the graph's arena, as a
	// Vertex's do; an aggregate link's one child is its contributor.
	kids *int
	fp   uint64
	// trigger is the vertex's Trigger.
	trigger int32
	// Delta-chain annotation of an aggregate DERIVE (aggCount > 0, the
	// running contributor count): prev is the vertex ID of the previous
	// head's DERIVE (-1 for the group's first), and the contributor is the
	// recorded child (contrib). ChildrenOf folds the chain into the full
	// contributor list on demand; recorded children stay O(1) per update.
	aggCount, prev int32
	// Reverse edges (vertex ID + 1, 0: none; DESIGN.md §3), written only by
	// the graph that recorded this derivation, before it is sealed: up is
	// the head tuple's APPEAR, and older the DERIVE the same vertex
	// triggered before this one.
	up, older int32
	nkids     uint8
}

// contrib returns an aggregate link's contributor: the APPEAR or EXIST it
// adds, or -1 if it was unresolved.
func (d *derivation) contrib() int {
	if d.nkids == 0 {
		return -1
	}
	return *d.kids
}

// underivation is the record of one UNDERIVE vertex: its label, rule,
// stamp and fingerprint, and its one cause inline — the DISAPPEAR of the
// body tuple that vanished, -1 if unresolved. It has no trigger, no
// aggregate annotation and no reverse edges. 48 bytes (TestRecordSizes).
type underivation struct {
	lab   *label
	rule  *string // the rule's name, the program's own string
	at    ndlog.Stamp
	fp    uint64
	cause int32
}

// appearance is the record of one tuple occurrence on a node, and of the
// vertexes about it: its APPEAR and the EXIST that follows it (not for an
// event table), the INSERT that caused it if it is the vertex right before
// the APPEAR, and the DISAPPEAR that ends it with, if it is the vertex
// right before, the DELETE that caused that. An INSERT, DELETE or
// DISAPPEAR that has no such occurrence in its graph link — a base
// insertion that added only a support, a disappearance of a tuple a
// sealed base made appear — takes a record of its own with only that
// part. 80 bytes (TestRecordSizes).
type appearance struct {
	lab *label
	at  ndlog.Stamp // the INSERT's, APPEAR's and EXIST's
	// to is the DISAPPEAR's and DELETE's stamp; once the record has a
	// DISAPPEAR it is where the EXIST's interval ends. A record that is an
	// INSERT or DELETE alone holds its stamp in both.
	to         ndlog.Stamp
	apFP, exFP uint64
	// cause is the APPEAR's (a DERIVE or INSERT, -1 if unresolved), and
	// endCause the DISAPPEAR's (an UNDERIVE or DELETE, or -1).
	cause, endCause int32
	// prev is the tuple's previous APPEAR recorded by the same graph (-1:
	// its first; see Graph.byTuple).
	prev int32
	// Reverse edges (vertex ID + 1, 0: none), written only by the graph that
	// recorded this occurrence, before it is sealed: the newest DERIVE its
	// APPEAR and its EXIST triggered. On a record that is only an INSERT,
	// apUp is the INSERT's head APPEAR.
	apUp, exUp int32
	parts      uint8 // which vertexes the record stands for
}

// The parts of an appearance record. Its EXIST is the vertex after its
// APPEAR if the ID table says so (ExistOf).
const (
	hasInsert uint8 = 1 << iota
	hasAppear
	hasDisappear
	hasDelete
)

// slab stores records in chunks it never reallocates, so a record's
// address is stable; locate maps an index to its chunk and slot. The
// first two chunk headers live in the slab itself (inline), so a narrow
// fork's slab allocates its chunks and nothing else.
type slab[T any] struct {
	chunks [][]T
	n      int
	inline [2][]T
}

func (s *slab[T]) at(i int) *T {
	c, slot, _ := locate(i)
	return &s.chunks[c][slot]
}

// push appends a zero record and returns it with its index.
func (s *slab[T]) push() (*T, int) {
	c, slot, size := locate(s.n)
	if c == len(s.chunks) {
		if s.chunks == nil {
			s.chunks = s.inline[:0]
		}
		s.chunks = append(s.chunks, make([]T, size))
	}
	s.n++
	return &s.chunks[c][slot], s.n - 1
}

// pop drops the last record.
func (s *slab[T]) pop() {
	s.n--
	var zero T
	*s.at(s.n) = zero
}

// vertexCache holds the vertexes reads synthesised, by ID: up to
// len(few) found by a scan, more through a map made when few is full (a
// narrow trial's diagnosis reads 2-9 of its own). They live in chunks that
// grow with the count, as labelSlab's do, so a fork that reads a handful
// pays for one chunk of four.
type vertexCache struct {
	few  [8]*Vertex
	nfew int
	byID map[int]*Vertex
	cur  []Vertex
}

func (c *vertexCache) get(id int) *Vertex {
	if c.byID != nil {
		return c.byID[id]
	}
	for _, v := range c.few[:c.nfew] {
		if v.ID == id {
			return v
		}
	}
	return nil
}

// add returns a new vertex cached under the ID, for the caller to fill in.
func (c *vertexCache) add(id int) *Vertex {
	if len(c.cur) == cap(c.cur) {
		n := c.nfew + len(c.byID)
		c.cur = make([]Vertex, 0, min(max(n/2, 4), 64))
	}
	c.cur = c.cur[:len(c.cur)+1]
	v := &c.cur[len(c.cur)-1]
	switch {
	case c.byID != nil:
		c.byID[id] = v
	case c.nfew < len(c.few):
		c.few[c.nfew] = v
		c.nfew++
	default:
		c.byID = make(map[int]*Vertex, 2*len(c.few))
		for _, w := range c.few {
			c.byID[w.ID] = w
		}
		c.byID[id], c.nfew = v, 0
	}
	v.ID = id
	return v
}

// Graph is an append-only temporal provenance graph, stored as records: one
// per derivation (a DERIVE or UNDERIVE) and one per tuple occurrence (its
// INSERT, APPEAR, EXIST, DISAPPEAR and DELETE), in slabs, with their
// children in one []int arena, so recording allocates nothing but
// amortised chunk growth. An ID table maps each vertex ID to its record
// and type, and a read synthesises the vertex (DESIGN.md §3). A CoW
// fork shares its sealed base as a prefix it never copies (see cow.go).
type Graph struct {
	// ids is the ID table of the n vertexes this graph recorded itself (IDs
	// baseLen and up), four to an element: the vertex's record index in
	// derivs, underivs or apps, shifted past its type (newID).
	ids      slab[[4]uint32]
	n        int
	derivs   slab[derivation]
	underivs slab[underivation]
	apps     slab[appearance]
	// kids is the children arena's current block; a full one is left to
	// the records that point into it.
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
	// for it. Earlier APPEARs hang off the newest by their records' prev
	// links (appearAt walks them for a body reference); its open EXIST is
	// the newest APPEAR's (openExist).
	byTuple map[ndlog.TupleRef]tupleEnds
	// headOver and trigOver are a fork's overflow: the up links it owes
	// vertexes of its sealed base (a base cause's head APPEAR, the newest of
	// the fork's DERIVEs a base vertex triggered), keyed by their IDs, and
	// closes the stamps at which it closed base EXISTs. Made on first use:
	// most forks never need headOver.
	headOver, trigOver map[int]int32
	closes             map[int]ndlog.Stamp

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

	// cache holds the vertexes reads synthesised from this link's records
	// (and, for base EXISTs this link closed, its own view of them). Filled
	// on sealed graphs too, under cacheMu: a warm diagnosis reads the
	// shared base run without allocating.
	cacheMu sync.RWMutex
	cache   vertexCache

	// Copy-on-write state (see cow.go). A CoW fork keeps the frozen base
	// graph it shadows: local vertexes occupy IDs baseLen and up.
	base    *Graph
	baseLen int
	sealed  bool
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

// Slab chunk sizes: chunkMin records, then doubling from chunkMin up to
// chunkMax and chunkMax from there on — 8, 8, 16, 32, …, 512, 512, …. A
// narrow counterfactual fork records 6-15 records of each kind and must
// not pay for a wide one's chunk; a wide one records thousands and must
// not leave half a doubled chunk empty.
const (
	chunkMin   = 8
	chunkMax   = 512
	cappedFrom = 7 // first chunk of chunkMax records: chunkMin<<(cappedFrom-1) == chunkMax

	kidsMin, kidsMax = 32, 4096 // children-arena blocks double from kidsMin to kidsMax ints
)

// locate maps a slab index to its chunk, the slot within it and the
// chunk's size.
func locate(i int) (chunk, slot, size int) {
	switch {
	case i < chunkMin:
		return 0, i, chunkMin
	case i >= chunkMax:
		i -= chunkMax
		return cappedFrom + i/chunkMax, i % chunkMax, chunkMax
	}
	// Chunk c >= 1 holds [chunkMin<<(c-1), chunkMin<<c).
	c := bits.Len(uint(i / chunkMin))
	return c, i - chunkMin<<(c-1), chunkMin << (c - 1)
}

// An ID-table entry is the vertex's record index shifted past its type.
const typeBits = 3

func entryType(e uint32) VertexType { return VertexType(e & (1<<typeBits - 1)) }

// entry returns the chain link that recorded the vertex and the vertex's
// ID-table entry there. The caller guarantees 0 <= id < NumVertexes().
func (g *Graph) entry(id int) (*Graph, uint32) {
	for id < g.baseLen {
		g = g.base
	}
	i := id - g.baseLen
	return g, g.ids.at(i >> 2)[i&3]
}

// typeOf returns the vertex's type.
func (g *Graph) typeOf(id int) VertexType {
	_, e := g.entry(id)
	return entryType(e)
}

// deriv, underiv and app return the record an ID-table entry of this link
// names.
func (g *Graph) deriv(e uint32) *derivation     { return g.derivs.at(int(e >> typeBits)) }
func (g *Graph) underiv(e uint32) *underivation { return g.underivs.at(int(e >> typeBits)) }
func (g *Graph) app(e uint32) *appearance       { return g.apps.at(int(e >> typeBits)) }

// newID gives the next vertex ID to a vertex of the given type whose
// record is at index rec of its slab.
func (g *Graph) newID(typ VertexType, rec int) int {
	if g.n&3 == 0 {
		g.ids.push()
	}
	g.n++
	id := g.NumVertexes() - 1
	g.setEntry(id, typ, rec)
	return id
}

// setEntry points this graph's own vertex ID at a record.
func (g *Graph) setEntry(id int, typ VertexType, rec int) {
	i := id - g.baseLen
	g.ids.at(i >> 2)[i&3] = uint32(rec)<<typeBits | uint32(typ)
}

// labelAt returns the label of the vertex with the given ID.
func (g *Graph) labelAt(id int) *label {
	lr, e := g.entry(id)
	switch entryType(e) {
	case Derive:
		return lr.deriv(e).lab
	case Underive:
		return lr.underiv(e).lab
	}
	return lr.app(e).lab
}

// putKids copies children into the arena and returns their window.
func (g *Graph) putKids(children []int) (*int, uint8) {
	n := kidsWords(len(children))
	if n == 0 {
		return nil, 0
	}
	if len(g.kids)+n > cap(g.kids) {
		g.kids = make([]int, 0, max(n, min(2*cap(g.kids), kidsMax), kidsMin))
	}
	var kids *int
	var nkids uint8
	g.kids, kids, nkids = putKids(g.kids, children)
	return kids, nkids
}

// vertex returns the vertex with the given ID, synthesised once by the
// chain link that recorded it — or by the one that closed it, if a fork
// closed a base EXIST — and cached there. The caller guarantees 0 <= id <
// NumVertexes().
func (g *Graph) vertex(id int) *Vertex {
	for id < g.baseLen {
		if _, ok := g.closes[id]; ok {
			break
		}
		g = g.base
	}
	g.cacheMu.RLock()
	v := g.cache.get(id)
	g.cacheMu.RUnlock()
	if v != nil {
		return v
	}
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	if v = g.cache.get(id); v == nil {
		v = g.cache.add(id)
		g.synth(id, v)
	}
	return v
}

// synth fills v in with the vertex the graph's records say the ID is, as
// this graph sees it.
func (g *Graph) synth(id int, v *Vertex) {
	lr, e := g.entry(id)
	typ := entryType(e)
	*v = Vertex{ID: id, Type: typ, Trigger: -1}
	switch typ {
	case Derive:
		d := lr.deriv(e)
		v.label, v.Rule, v.At, v.fp = d.lab, *d.rule, d.at, d.fp
		v.kids, v.nkids = d.kids, d.nkids
		v.Trigger = int(d.trigger)
		return
	case Underive:
		u := lr.underiv(e)
		v.label, v.Rule, v.At, v.fp = u.lab, *u.rule, u.at, u.fp
		v.setKid(int(u.cause))
		return
	}
	a := lr.app(e)
	v.label = a.lab
	switch typ {
	case Insert:
		v.At, v.fp = a.at, finish(fnvLabel(Insert, a.lab, ""))
	case Appear:
		v.At, v.fp = a.at, a.apFP
		v.setKid(int(a.cause))
	case Exist:
		v.At, v.fp = a.at, a.exFP
		v.setKid(id - 1)
		var closed bool
		v.Span.To, closed = g.existEnd(id)
		v.Open = !closed
	case Disappear:
		v.At, v.fp = a.to, g.endFP(a)
		v.setKid(int(a.endCause))
	case Delete:
		v.At, v.fp = a.to, finish(fnvLabel(Delete, a.lab, ""))
	}
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
	for a := g.byTuple[ndlog.TupleRef{Node: node, Key: string(key)}].newest[newestAppear]; a != 0; a = g.ownApp(a).prev + 1 {
		out = append(out, int(a)-1)
	}
	slices.Reverse(out[from:])
	return out
}

// FindAppears returns the APPEAR vertexes on a node, over a table,
// matching the predicate, in recording order. It is the graph's query
// entry point: "the packet that arrived at web server 2" is an APPEAR. It
// scans the chain's ID tables in ID order, which is recording order: IDs
// only grow along the chain.
func (g *Graph) FindAppears(node, table string, pred func(ndlog.Tuple) bool) []*Vertex {
	var out []*Vertex
	for id, n := 0, g.NumVertexes(); id < n; id++ {
		if g.typeOf(id) != Appear {
			continue
		}
		if l := g.labelAt(id); l.Node == node && l.Tuple.Table == table && (pred == nil || pred(l.Tuple)) {
			out = append(out, g.vertex(id))
		}
	}
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
	if id < 0 || id >= g.NumVertexes() {
		return nil
	}
	if t := g.typeOf(id); t != Appear && t != Exist {
		return nil
	}
	return g.triggered(id, nil)
}

// HeadAppear returns the APPEAR vertex of the head tuple produced by the
// given DERIVE (or following a base INSERT), or -1.
func (g *Graph) HeadAppear(id int) int {
	if id < 0 || id >= g.NumVertexes() {
		return -1
	}
	if t := g.typeOf(id); t != Derive && t != Insert {
		return -1
	}
	for gr := g; ; gr = gr.base {
		if id >= gr.baseLen {
			return gr.headOf(id)
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
	if e := appearID + 1; appearID >= 0 && e < g.NumVertexes() && g.typeOf(e) == Exist {
		return e
	}
	return -1
}

// openExist returns the tuple's currently-open EXIST vertex, or -1: the
// one its latest APPEAR opened, until a DISAPPEAR closes it.
func (g *Graph) openExist(tk ndlog.TupleRef) int {
	if e := g.ExistOf(g.newest(tk, newestAppear)); e >= 0 {
		if _, closed := g.existEnd(e); !closed {
			return e
		}
	}
	return -1
}

// Vertexes calls fn for every vertex in creation order. It synthesises
// each into one scratch vertex and caches none, so fn must not keep v or
// its Children: Vertex(v.ID) is the vertex that lasts.
func (g *Graph) Vertexes(fn func(v *Vertex)) {
	var v Vertex
	for i, n := 0, g.NumVertexes(); i < n; i++ {
		g.synth(i, &v)
		fn(&v)
	}
}

// ShardSize returns the size of the node's provenance shard (§4.8): the
// number of vertexes whose Node it is. The shards partition the graph.
func (g *Graph) ShardSize(node string) int {
	n := 0
	for id, end := 0, g.NumVertexes(); id < end; id++ {
		if g.labelAt(id).Node == node {
			n++
		}
	}
	return n
}

// AggDelta reports a vertex's aggregate delta-chain annotation: the
// vertex ID of the previous head's DERIVE (-1 for the first) and the
// running contributor count. ok is false for non-aggregate vertexes.
func (g *Graph) AggDelta(id int) (prev int, count int64, ok bool) {
	if id < 0 || id >= g.NumVertexes() {
		return 0, 0, false
	}
	lr, e := g.entry(id)
	if entryType(e) != Derive {
		return 0, 0, false
	}
	if d := lr.deriv(e); d.aggCount > 0 {
		return int(d.prev), int64(d.aggCount), true
	}
	return 0, 0, false
}

// ChildrenOf returns the causal children of a vertex as consumers should
// see them: for aggregate DERIVE vertexes recorded as deltas, the chain
// is folded into the full contributor list (all of the group's
// contributors in appearance order); for everything else it is the
// recorded Children slice. The returned slice must not be written to; its
// capacity is its length, so appending to it copies.
func (g *Graph) ChildrenOf(id int) []int {
	if id < 0 || id >= g.NumVertexes() {
		return nil
	}
	lr, e := g.entry(id)
	if entryType(e) != Derive {
		return g.vertex(id).Children()
	}
	d := lr.deriv(e)
	// A link whose recorded children number its count (a chain's count-1
	// start) already carries the full list.
	if kids := kidsOf(d.kids, d.nkids); d.aggCount == 0 || len(kids) == int(d.aggCount) {
		return kids
	}
	return g.foldAgg(id, d)
}

// foldAgg reconstructs the full contributor list of an aggregate head by
// walking the delta chain backwards to its start and appending each link's
// contributor on the way forward, memoizing the result per chain head. The
// walk stops early at the first predecessor whose fold is memoized, so
// across the queries a diagnosis issues each chain link is visited O(1)
// times amortized.
func (g *Graph) foldAgg(id int, d *derivation) []int {
	g.foldMu.Lock()
	defer g.foldMu.Unlock()
	if out, ok := g.foldMemo[id]; ok {
		return out
	}
	var prefix []int
	var rev []*derivation // links, newest first
	for cur := d; ; {
		rev = append(rev, cur)
		if cur.prev < 0 || int(cur.prev) >= g.NumVertexes() {
			break
		}
		if out, ok := g.foldMemo[int(cur.prev)]; ok {
			prefix = out
			break
		}
		lr, e := g.entry(int(cur.prev))
		if entryType(e) != Derive {
			break
		}
		cur = lr.deriv(e)
	}
	out := make([]int, 0, len(prefix)+len(rev))
	out = append(out, prefix...)
	for i := len(rev) - 1; i >= 0; i-- {
		if c := rev[i].contrib(); c >= 0 {
			out = append(out, c)
		}
	}
	g.foldMemo[id] = out
	return out
}

// Recording. The recorder hands each vertex's label, stamp and causes to
// one of the add methods below, which fill the records in; cow.go keeps
// the indexes and reverse edges.

// writable panics on a sealed graph: every fork sharing its records would
// see the write.
func (g *Graph) writable() {
	if g.sealed {
		panic("provenance: record into sealed graph (fork it instead)")
	}
}

// addDerivation records a DERIVE whose record d holds all but its
// children, copies the children into the arena, and returns the vertex ID.
// An aggregate link's children are its contributor, if resolved.
func (g *Graph) addDerivation(d derivation, children []int) int {
	g.writable()
	id := g.newID(Derive, g.derivs.n)
	rec, _ := g.derivs.push()
	*rec = d
	rec.kids, rec.nkids = g.putKids(children)
	// Children are complete and strictly precede the vertex: the hash is
	// final.
	rec.fp = g.deriveFP(rec, children)
	return id
}

// addUnderivation records an UNDERIVE of the rule's head, labelled l, at
// the stamp, caused by cause (a DISAPPEAR, -1 if unresolved), and returns
// the vertex ID.
func (g *Graph) addUnderivation(l *label, rule *string, at ndlog.Stamp, cause int) int {
	g.writable()
	id := g.newID(Underive, g.underivs.n)
	rec, _ := g.underivs.push()
	*rec = underivation{lab: l, rule: rule, at: at, cause: int32(cause)}
	h := fnvLabel(Underive, l, *rule)
	if cause >= 0 {
		h = fnvUint64(h, g.fpOf(cause))
	}
	rec.fp = finish(h)
	return id
}

// addPoint records an INSERT or DELETE in a record of its own, until the
// APPEAR it causes joins it or it joins the DISAPPEAR it causes, if that
// is the next vertex (joinable).
func (g *Graph) addPoint(typ VertexType, l *label, at ndlog.Stamp) int {
	g.writable()
	id := g.newID(typ, g.apps.n)
	a, _ := g.apps.push()
	*a = appearance{lab: l, at: at, to: at, cause: -1, endCause: -1, prev: -1, parts: pointPart(typ)}
	return id
}

func pointPart(typ VertexType) uint8 {
	if typ == Delete {
		return hasDelete
	}
	return hasInsert
}

// joinable returns the record of cause if cause is an INSERT or DELETE
// (typ) of the tuple at the stamp, the vertex this graph recorded last, in
// its own record, the last of the slab; else -1.
func (g *Graph) joinable(cause int, typ VertexType, l *label, at ndlog.Stamp) int {
	if cause < g.baseLen || cause != g.NumVertexes()-1 {
		return -1
	}
	_, e := g.entry(cause)
	if entryType(e) != typ {
		return -1
	}
	rec := int(e >> typeBits)
	if a := g.app(e); a.parts != pointPart(typ) || a.lab != l || a.at != at || rec != g.apps.n-1 {
		return -1
	}
	return rec
}

// addAppear records the APPEAR of an occurrence caused by cause (a DERIVE
// or INSERT, -1 if unresolved) and, unless the tuple is an event, the
// EXIST right after it, and returns the APPEAR's ID. The INSERT that
// caused it, if joinable, is the occurrence's: its record becomes the
// occurrence's.
func (g *Graph) addAppear(l *label, at ndlog.Stamp, cause int, event bool) int {
	g.writable()
	rec := g.joinable(cause, Insert, l, at)
	if rec < 0 {
		var a *appearance
		a, rec = g.apps.push()
		*a = appearance{lab: l, at: at, endCause: -1}
	}
	id := g.newID(Appear, rec)
	a := g.apps.at(rec)
	a.cause, a.parts = int32(cause), a.parts|hasAppear
	a.apFP = g.causedFP(Appear, l, cause)
	g.indexAppear(id, a, cause)
	if !event {
		// The EXIST directly follows its APPEAR: ExistOf and openExist
		// find it by that adjacency, not through an index.
		g.newID(Exist, rec)
		a.exFP = finish(fnvUint64(fnvLabel(Exist, l, ""), a.apFP))
	}
	return id
}
