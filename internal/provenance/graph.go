// Package provenance implements the temporal provenance graph of DTaP as
// used by DiffProv (§3.2 of the paper): an append-only DAG over seven
// vertex types (INSERT, DELETE, EXIST, DERIVE, UNDERIVE, APPEAR,
// DISAPPEAR) that records the causal connections between the states and
// events of an NDlog execution, plus tree projection and seed finding.
package provenance

import (
	"fmt"
	"strings"
	"sync"

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
// creation order.
type Vertex struct {
	ID    int
	Type  VertexType
	Node  string
	Tuple ndlog.Tuple
	// key is Tuple's canonical key: the string whoever reported the vertex
	// (the engine, the Builder, the shard loader) computed when the row or
	// occurrence was created. Vertexes share it with the engine's rows; the
	// indexes and fingerprints below use it and never re-encode Tuple.
	key  string
	Rule string // rule name, for DERIVE/UNDERIVE

	// At is the event time for point vertexes (all but EXIST).
	At ndlog.Stamp
	// Span is the existence interval for EXIST vertexes.
	Span ndlog.Interval

	// Children are the IDs of the direct causes of this vertex.
	Children []int
	// Trigger, for DERIVE vertexes, is the index into Children of the
	// precondition that appeared last and thus triggered the rule
	// (-1 elsewhere). The seed-finding procedure of §4.2 follows these.
	Trigger int

	// fp is the Merkle-style structural hash of the subtree rooted here,
	// computed once by add() (see fingerprint.go); 0 means "none" (vertexes
	// reported by distributed shard recorders, which bypass add).
	fp uint64

	// Delta-chain annotation for aggregate DERIVE vertexes (aggCount > 0):
	// aggPrev is the vertex ID of the previous head's DERIVE (-1 for the
	// group's first), aggContrib the vertex ID of the new contributor's
	// APPEAR (-1 if unresolved), and aggCount the running contributor
	// count. ChildrenOf folds the chain into the full contributor list on
	// demand; recorded Children stay O(1) per update.
	aggPrev    int
	aggContrib int
	aggCount   int64
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
		if !v.Span.Open {
			to = v.Span.To.String()
		}
		return fmt.Sprintf("EXIST(%s, %s, [%s, %s))", v.Node, v.Tuple, v.Span.From, to)
	}
	s := v.Label()
	return fmt.Sprintf("%s@%s", s, v.At)
}

// Graph is an append-only temporal provenance graph.
type Graph struct {
	vertexes []*Vertex

	// appearByRef locates the APPEAR vertex for a tuple appearance, keyed
	// by the engine's body reference {node, tuple key, appearance seq}.
	appearByRef map[ndlog.BodyRef]int
	// openExist tracks the currently-open EXIST vertex per {node, tuple key}.
	openExist map[ndlog.TupleRef]int
	// existByRef maps a body reference to the EXIST vertex opened by that
	// appearance.
	existByRef map[ndlog.BodyRef]int
	// byDerive maps engine derivation IDs to DERIVE vertex IDs.
	byDerive map[int64]int
	// appearsByTuple indexes APPEAR vertexes by {node, tuple key} in order.
	appearsByTuple map[ndlog.TupleRef][]int
	// lastDisappear maps {node, tuple key} to the latest DISAPPEAR vertex.
	lastDisappear map[ndlog.TupleRef]int
	// appearsByTable indexes APPEAR vertexes by {node, table} for queries.
	appearsByTable map[tableRef][]int
	// triggerParents maps a vertex (EXIST or APPEAR) to the DERIVE
	// vertexes it triggered, for walking derivation chains upward.
	triggerParents map[int][]int
	// headAppear maps a DERIVE (or INSERT) vertex to the APPEAR of its
	// head tuple.
	headAppear map[int]int
	// existOf maps an APPEAR vertex to the EXIST vertex it opened.
	existOf map[int]int

	// foldMemo caches folded aggregate contributor lists, keyed by the
	// chain head's fingerprint: repeated Tree projections of the same
	// aggregate head (every diagnosis round, every treediff) pay the
	// O(k) chain walk once. Entries are immutable once stored. Guarded
	// by foldMu because trees may be projected from shared graphs
	// concurrently. Never chained through base: Fork snapshots the
	// base's memo, so each graph's memo is self-contained.
	foldMu   sync.Mutex
	foldMemo map[uint64][]int

	// Copy-on-write state (see cow.go). A CoW fork keeps the frozen base
	// graph it shadows: local vertexes occupy IDs baseLen and up, redirect
	// holds fork-private copies of base vertexes whose Span was closed
	// locally, and the index maps above become overlays over the base's.
	base     *Graph
	baseLen  int
	redirect map[int]*Vertex
	sealed   bool
}

// tableRef identifies a table on a node.
type tableRef struct{ node, table string }

// NewGraph creates an empty provenance graph.
func NewGraph() *Graph {
	g := emptyGraph()
	g.foldMemo = map[uint64][]int{}
	return g
}

// emptyGraph returns a graph (or fork overlay) with empty index maps.
func emptyGraph() *Graph {
	return &Graph{
		appearByRef:    map[ndlog.BodyRef]int{},
		openExist:      map[ndlog.TupleRef]int{},
		existByRef:     map[ndlog.BodyRef]int{},
		byDerive:       map[int64]int{},
		appearsByTuple: map[ndlog.TupleRef][]int{},
		lastDisappear:  map[ndlog.TupleRef]int{},
		appearsByTable: map[tableRef][]int{},
		triggerParents: map[int][]int{},
		headAppear:     map[int]int{},
		existOf:        map[int]int{},
	}
}

// NumVertexes returns the number of vertexes in the graph, including
// those inherited from a frozen base.
func (g *Graph) NumVertexes() int { return g.baseLen + len(g.vertexes) }

// Vertex returns the vertex with the given ID.
func (g *Graph) Vertex(id int) *Vertex {
	if id < 0 || id >= g.NumVertexes() {
		return nil
	}
	return g.vertex(id)
}

func (g *Graph) add(v *Vertex) *Vertex {
	if g.sealed {
		panic("provenance: record into sealed graph (fork it instead)")
	}
	v.ID = g.NumVertexes()
	if v.Type != Derive {
		v.Trigger = -1
	}
	// Children are complete before a vertex is published and strictly
	// precede it, so the structural hash is final here.
	v.fp = g.fingerprintOf(v)
	g.vertexes = append(g.vertexes, v)
	return v
}

// AppearVertexes returns the APPEAR vertex IDs for the exact tuple on the
// node, in chronological order.
func (g *Graph) AppearVertexes(node string, t ndlog.Tuple) []int {
	var out []int
	forEachIn(g, selAppearsByTuple, ndlog.TupleRef{Node: node, Key: t.Key()}, func(id int) {
		out = append(out, id)
	})
	return out
}

// FindAppears returns the APPEAR vertexes on a node, over a table,
// matching the predicate, in chronological order. It is the graph's query
// entry point: "the packet that arrived at web server 2" is an APPEAR.
func (g *Graph) FindAppears(node, table string, pred func(ndlog.Tuple) bool) []*Vertex {
	var out []*Vertex
	forEachIn(g, selAppearsByTable, tableRef{node: node, table: table}, func(id int) {
		v := g.vertex(id)
		if pred == nil || pred(v.Tuple) {
			out = append(out, v)
		}
	})
	return out
}

// LastAppear returns the most recent APPEAR of the tuple on the node, or
// nil.
func (g *Graph) LastAppear(node string, t ndlog.Tuple) *Vertex {
	id := lastIn(g, selAppearsByTuple, ndlog.TupleRef{Node: node, Key: t.Key()})
	if id < 0 {
		return nil
	}
	return g.vertex(id)
}

// TriggerParents returns the DERIVE vertexes that were triggered by the
// given vertex (the derivations for which it was the last precondition to
// appear). Following these walks a derivation chain from a seed upward.
func (g *Graph) TriggerParents(id int) []int {
	var out []int
	forEachIn(g, selTriggerParents, id, func(p int) {
		out = append(out, p)
	})
	return out
}

// HeadAppear returns the APPEAR vertex of the head tuple produced by the
// given DERIVE (or following a base INSERT), or -1.
func (g *Graph) HeadAppear(id int) int {
	if a, ok := lookup(g, selHeadAppear, id); ok {
		return a
	}
	return -1
}

// ExistOf returns the EXIST vertex opened by the given APPEAR, or -1 for
// event tuples (which never exist as state).
func (g *Graph) ExistOf(appearID int) int {
	if e, ok := lookup(g, selExistOf, appearID); ok {
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

// AggDelta reports a vertex's aggregate delta-chain annotation: the
// vertex ID of the previous head's DERIVE (-1 for the first) and the
// running contributor count. ok is false for non-aggregate vertexes.
func (g *Graph) AggDelta(id int) (prev int, count int64, ok bool) {
	v := g.Vertex(id)
	if v == nil || v.aggCount == 0 {
		return 0, 0, false
	}
	return v.aggPrev, v.aggCount, true
}

// ChildrenOf returns the causal children of a vertex as consumers should
// see them: for aggregate DERIVE vertexes recorded as deltas, the chain
// is folded into the full contributor list (all of the group's
// contributors in appearance order); for everything else it is the
// recorded Children slice. The returned slice must not be mutated.
func (g *Graph) ChildrenOf(id int) []int {
	v := g.Vertex(id)
	if v == nil {
		return nil
	}
	// Eagerly-recorded aggregates (and count-1 chains) already carry the
	// full list in Children.
	if v.aggCount == 0 || int64(len(v.Children)) == v.aggCount {
		return v.Children
	}
	return g.foldAgg(v)
}

// foldAgg reconstructs the full contributor list of an aggregate head by
// walking the delta chain backwards, memoizing the result per chain-head
// fingerprint. The walk stops early at the first predecessor whose fold
// is already memoized, so across the queries a diagnosis issues each
// chain link is visited O(1) times amortized.
func (g *Graph) foldAgg(v *Vertex) []int {
	g.foldMu.Lock()
	defer g.foldMu.Unlock()
	if out, ok := g.foldMemo[v.fp]; ok {
		return out
	}
	var prefix []int
	var rev []int // contributors, newest first
	for cur := v; ; {
		if cur.aggContrib >= 0 {
			rev = append(rev, cur.aggContrib)
		}
		if cur.aggPrev < 0 || cur.aggPrev >= g.NumVertexes() {
			break
		}
		prev := g.vertex(cur.aggPrev)
		if out, ok := g.foldMemo[prev.fp]; ok {
			prefix = out
			break
		}
		if prev.aggCount > 0 && int64(len(prev.Children)) == prev.aggCount {
			prefix = prev.Children // eagerly materialized predecessor
			break
		}
		cur = prev
	}
	out := make([]int, 0, len(prefix)+len(rev))
	out = append(out, prefix...)
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	g.foldMemo[v.fp] = out
	return out
}
