package ndlog

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/cow"
)

// Observer receives primitive provenance events from the engine. The
// provenance package implements it to build the temporal provenance graph.
// All callbacks happen synchronously in deterministic order.
//
// Every tuple an observer is told about arrives with its canonical key
// (KeyedAt.Key, Derivation.Refs): the string the engine computed when it
// created the row or occurrence. Observers index and hash by that string
// and never call Tuple.Key themselves.
type Observer interface {
	// OnBaseInsert fires when a base tuple is inserted by the outside world.
	OnBaseInsert(at KeyedAt)
	// OnBaseDelete fires when a base tuple is deleted by the outside world.
	OnBaseDelete(at KeyedAt)
	// OnAppear fires when a tuple appears on a node (count 0 -> 1, or an
	// event tuple occurs). deriveID is the derivation that produced it,
	// or 0 for base insertions.
	OnAppear(at KeyedAt, deriveID int64)
	// OnDisappear fires when a state tuple disappears (count 1 -> 0).
	// underiveID is the underivation that removed the last support, or 0
	// when the cause was a base deletion.
	OnDisappear(at KeyedAt, underiveID int64)
	// OnDerive fires when a rule derives a tuple. The derivation's body
	// arrives as references (d.Refs) plus the triggering element (d.Trig);
	// Refs is the engine's, write-once, and may be kept.
	OnDerive(d Derivation)
	// OnUnderive fires when a derivation's support is retracted.
	OnUnderive(u Underivation)
}

// Derivation describes one rule firing. Its body is identified, not
// copied: Refs names every body element by node, canonical key and
// appearance sequence — what a recorder resolves to the element's vertex —
// and only the element that fired the rule travels whole, as Trig.
//
// For counting rules the derivation is a delta: Refs holds only the new
// contributor (the triggering event), and the full contributor set is the
// chain of predecessors linked through AggPrev. Provenance recorders fold
// the chain back into the complete list on demand; the engine never
// materializes it, which keeps aggregate recording O(1) per update
// instead of O(k) (and O(k) total per group instead of O(k²)).
type Derivation struct {
	ID      int64
	Rule    string
	Node    string    // node that evaluated the rule
	Head    KeyedAt   // head tuple at its destination (stamp = appearance there)
	Refs    []BodyRef // the body elements, in atom order
	Trigger int       // index into Refs of the element that appeared last
	Trig    At        // that element: Refs[Trigger] names it

	// AggPrev is the derivation ID of the previous head of the same
	// aggregate group (0 for the group's first derivation), and AggCount
	// the running contributor count. AggCount > 0 marks an aggregate
	// delta derivation; both are 0 for ordinary rules.
	AggPrev  int64
	AggCount int64
}

// Underivation describes the retraction of a prior derivation.
type Underivation struct {
	ID       int64 // fresh id of the underivation
	DeriveID int64 // the derivation being retracted
	Rule     string
	Node     string
	Head     KeyedAt // head tuple, stamp = retraction time
	Cause    KeyedAt // the body tuple whose disappearance triggered this
}

// NopObserver discards all events.
type NopObserver struct{}

// OnBaseInsert implements Observer.
func (NopObserver) OnBaseInsert(KeyedAt) {}

// OnBaseDelete implements Observer.
func (NopObserver) OnBaseDelete(KeyedAt) {}

// OnAppear implements Observer.
func (NopObserver) OnAppear(KeyedAt, int64) {}

// OnDisappear implements Observer.
func (NopObserver) OnDisappear(KeyedAt, int64) {}

// OnDerive implements Observer.
func (NopObserver) OnDerive(Derivation) {}

// OnUnderive implements Observer.
func (NopObserver) OnUnderive(Underivation) {}

// Interval is a half-open span of logical time during which a tuple
// existed on a node. Open intervals (tuple still live) have Open == true.
type Interval struct {
	From Stamp
	To   Stamp
	Open bool
}

// Contains reports whether the interval covers the stamp. A closed
// zero-length interval (an event occurrence) contains exactly its point.
func (iv Interval) Contains(s Stamp) bool {
	if s.Before(iv.From) {
		return false
	}
	if iv.Open {
		return true
	}
	if iv.From == iv.To {
		return s == iv.From
	}
	return s.Before(iv.To)
}

// Engine evaluates an NDlog program over a simulated distributed system in
// deterministic logical time.
type Engine struct {
	prog *Program
	obs  Observer
	// nodes and tables are copy-on-write overlays, like the maps below: a
	// fork's links hold the nodes it created and the tables it created or
	// cloned (cow.go), over its base's. tables is keyed by (node, table).
	// nodeOrder lists the nodes in creation order; a fork shares its base's,
	// its capacity clipped, so the fork's first node of its own copies it.
	nodes     cow.Overlay[string, *node]
	nodeOrder []*node
	tables    cow.Overlay[tableRef, *table]
	queue     workHeap
	// work is the engine's evaluation scratch, made on first use (scratch).
	// A fork takes a spare set from base, the sealed engine it was forked
	// from, and hands it back when its drain first empties its queue
	// (handOn); spares are the sets the settled forks of this engine handed
	// on, for its next forks, a stack through scratch.next guarded by
	// sparesMu.
	work     *scratch
	base     *Engine
	sparesMu sync.Mutex
	spares   *scratch
	seq      uint64
	// seqBand splits the stamp sequence space: externally scheduled base
	// events draw from baseSeq (1..seqBand-1, in schedule order) while
	// engine-internal stamps (derived arrivals, retractions, aggregate
	// updates) draw from seqBand+seq. The split makes execution
	// order a function of the event schedule alone — independent of how
	// scheduling interleaves with Run calls — which is what lets a fork of
	// a sealed run reproduce a from-scratch replay stamp-for-stamp.
	seqBand  uint64
	baseSeq  uint64
	now      Stamp
	deriveID int64
	delay    int64 // cross-node transit delay in ticks
	// The engine's maps are copy-on-write overlays (internal/cow): a fork's
	// link holds what the fork wrote, over its sealed base's.
	//
	// dependents maps a row to the derived rows it supports, for the
	// deletion cascade. Refs are pruned when a support is retracted
	// through any cause (see unindexSupport), so the map stays bounded by
	// the number of live supports.
	dependents cow.Overlay[TupleRef, []dependentRef]
	// aggGroups holds the incremental state of counting rules.
	aggGroups cow.Overlay[string, *aggGroup]
	// deriveLimit bounds lifetime derivations as a guard against
	// non-terminating models (e.g. forwarding loops).
	deriveLimit int
	stats       Stats
	// compiled holds the program's rules compiled to slot frames
	// (compile.go) and the (rule, atom) pairs each table's tuples fire, as
	// the program cached them when New ran — rules added to the program
	// later are not evaluated — shared, immutable, with every fork.
	compiled *compiledProgram
	// indexing enables secondary hash indexes for body-atom joins (see
	// index.go); plans are the join plans and table indexes it chose, nil
	// with indexing off.
	plans    *joinPlans
	indexing bool
	// analysis enables the static program analysis (default on): an
	// Error-severity finding in the program's cached report
	// (Program.Analyze) makes Run refuse the program.
	analysis bool
	// sealed marks an engine frozen as a base run: it refuses Run and
	// Schedule calls, and forks clone its tables on first write. See
	// cow.go.
	sealed bool
	// Repair of out-of-order work; see delta.go. settled marks an engine
	// that has drained its queue once; each table written from then on is
	// flagged and counted into Stats.DirtyTables (writableTable). highWater
	// is the newest stamp drain has processed: work stamped before it lands
	// in an evaluated past, and only such work re-fires, erases and
	// re-evaluates. amDeriv maps each argmax trigger of a state head to the
	// winner it currently supports, and repair holds what a repair in
	// progress keeps (made on first use).
	settled   bool
	highWater Stamp
	amDeriv   cow.Overlay[amTrigger, amWinner]
	repair    *repairState
	// evDeps files each derived event occurrence under its body elements'
	// appearances (occDep), so repair can erase one whose precondition is
	// retracted; entries are never deleted. killedOccs marks erased event
	// occurrences by stamp sequence.
	evDeps     cow.Overlay[uint64, occChunk]
	killedOccs cow.Overlay[uint64, bool]
	// demand, on a fork made by ForkDemand, is what the fork derives and
	// erases: no head outside it (demand.go). nil derives everything.
	demand *Demand
	// arena is where what this engine creates is allocated (slab.go); a fork
	// starts with its own, empty. It is held by value, and every fork
	// allocates an Engine: the bools above sit next to each other, and the
	// repair state and the evaluation scratch are behind pointers, so that
	// the struct stays in the 704-byte size class
	// (TestEngineFitsItsSizeClass).
	arena arena
}

// errSealed is returned by Run and Schedule calls on a sealed engine.
var errSealed = errors.New("ndlog: engine is sealed (fork it to schedule or run)")

// Stats counts engine activity, used by the evaluation harness.
type Stats struct {
	BaseInserts int
	BaseDeletes int
	Derivations int
	Appears     int
	Disappears  int
	Messages    int
	// IndexProbes counts join lookups answered from a hash index,
	// IndexScans full scans of atoms with no bound columns, and
	// IndexFallbacks planned probes that had to degrade to a scan (a
	// variable the analysis expected bound was missing at runtime).
	IndexProbes    int
	IndexScans     int
	IndexFallbacks int
	// AggRetractMisses counts retractDerived calls that found the node,
	// table, row, or support they expected missing, and count() groups
	// repair could not re-step (aggregateErase, cutChain). Every
	// aggregate update retracts exactly the head it previously derived,
	// so any miss means a broken engine invariant (a stale head left live
	// with no trace); the differential suites assert this stays 0.
	AggRetractMisses int
	// DirtyTables counts the distinct (node, table) pairs whose rows the
	// engine wrote after it first settled (writableTable) — on a fork of a
	// base run, the tables it cloned: how much of the state the change set
	// perturbed. An erased event occurrence writes no row (killedOccs).
	DirtyTables int
}

type dependentRef struct {
	node     string
	key      string
	deriveID int64
}

type node struct {
	name string
	// loc is Str(name) boxed once: binding a location variable stores it
	// instead of converting the name on every unification.
	loc Value
}

// size returns how many rows the table has held.
func (tb *table) size() int { return len(tb.order) + len(tb.tail) }

// row returns the row at position pos.
func (tb *table) row(pos int) *row {
	if pos < len(tb.order) {
		return tb.order[pos]
	}
	return tb.tail[pos-len(tb.order)]
}

// parts returns the rows in appearance order, for a scan: order, then tail.
func (tb *table) parts() [2][]*row { return [2][]*row{tb.order, tb.tail} }

// rowAt returns the row at a position+1 that byKey, keyIdx or a row's prev
// holds, or nil for none.
func (tb *table) rowAt(p int32) *row {
	if p == 0 {
		return nil
	}
	return tb.row(int(p - 1))
}

// liveRow returns key's live row, or nil: its newest row, unless that died.
func (tb *table) liveRow(key string) *row {
	if r := tb.rowAt(tb.byKey.Get(key)); r != nil && !r.dead {
		return r
	}
	return nil
}

// tableRef names one node's table: the key of Engine.tables.
type tableRef struct{ node, table string }

type table struct {
	decl *TableDecl
	// order and then tail hold every row the table has held, dead ones
	// included, in appearance order (row, parts), and are a row's only
	// holders: everything else names a row by its position. A root appends
	// to order. A clone's order is the frozen table's rows, its array
	// shared (orderShared) until the clone writes one of them, and it
	// appends to its tail (writableRow).
	order, tail []*row
	// byKey holds the position+1 of each key's newest row, dead or alive:
	// the head of the key's history, which goes on through the rows' prev
	// (appearances). A clone's is a link over the frozen table's.
	byKey cow.Overlay[string, int32]
	// keyIdx holds, for a keyed table, the position+1 of the latest row to
	// take each primary key, dead or alive.
	keyIdx cow.Overlay[string, int32]
	// indexes holds the secondary hash indexes planned for this table, in
	// the plans' order (indexSpec.pos); buckets mirror order (see index.go).
	indexes []tableIndex
	// owner is the engine that made the table (tableFor, or forkTable on a
	// fork's first write). Only the owner writes it, and only until it is
	// sealed; any other engine reads it shared and clones it on its first
	// write (writableTable). See cow.go.
	owner *Engine
	from  *table // the frozen table a clone was made from (writableRow)
	// orderSorted is the length of the stamp-sorted prefix of the rows:
	// in-order appends are stamp-monotone, out-of-order ones land after it,
	// and the re-fire scan binary-searches it. See delta.go.
	orderSorted int
	orderShared bool
	// cfDirty marks a table this engine wrote after it settled
	// (writableTable), killed one with rows cutChain erased (erased).
	cfDirty, killed bool
}

// row is one appearance of a tuple in a table: a state tuple's, from its
// appearance until it dies, held by a support per derivation; or an event
// occurrence's, born dead at its own stamp, never written after, its one
// support the derivation that produced it (a base one has none). Rows live
// by value in the arena of the engine that created the row (newRow) or
// first wrote it in a clone (writableRow), and are always held by pointer;
// supports is the row's own window, spliced in place, never shared with
// another row or a base's copy. pos is the row's position in its table
// (table.row), and prev the position+1 of the key's row before it (0 for
// none); both are set once, when the row is made.
type row struct {
	tuple      Tuple
	key        string
	appearedAt Stamp
	diedAt     Stamp
	supports   []support
	dead       bool
	pos        int32
	prev       int32
}

type support struct {
	deriveID int64 // 0 for base insertion
	rule     string
	body     []BodyRef
}

// Tuple identity. A tuple's canonical key (Tuple.Key) is computed once,
// when the engine creates the row or occurrence, and from then on carried:
// rows hold it, joins copy it into the BodyRefs of a binding, and observers
// receive it. The engine's and the recorder's maps are keyed by the small
// comparable structs below, which share that one string instead of
// concatenating it into a new one per lookup.

// TupleRef identifies a tuple on a node.
type TupleRef struct {
	Node string
	Key  string // the tuple's canonical key
}

// BodyRef identifies one appearance of a tuple on a node: the element of a
// derivation body that a support references.
type BodyRef struct {
	Node string
	Key  string
	Seq  uint64 // stamp sequence of the appearance
}

// TupleRef returns the tuple the appearance belongs to.
func (b BodyRef) TupleRef() TupleRef { return TupleRef{Node: b.Node, Key: b.Key} }

// KeyedAt is an At together with its tuple's canonical key.
type KeyedAt struct {
	At
	Key string
}

// TupleRef identifies the tuple, Ref this appearance of it.
func (a KeyedAt) TupleRef() TupleRef { return TupleRef{Node: a.Node, Key: a.Key} }
func (a KeyedAt) Ref() BodyRef       { return BodyRef{Node: a.Node, Key: a.Key, Seq: a.Stamp.Seq} }

func keyedAt(node string, t Tuple, key string, st Stamp) KeyedAt {
	return KeyedAt{At: At{Node: node, Tuple: t, Stamp: st}, Key: key}
}

type workKind uint8

const (
	wkInsertBase workKind = iota
	wkDeleteBase
	wkArriveDerived
	// wkRelink links an occurrence (deriv.Head.Key its key) into the
	// count() group of rule deriv.Rule again, after cutChain.
	wkRelink
	// wkFree marks an item on the free list. process refuses it, so a stale
	// pointer to a recycled item fails instead of running as a zeroed item
	// would, as a wkInsertBase.
	wkFree
)

// workItem is one pending arrival of tuple on node at stamp: a base
// insertion or deletion, (wkArriveDerived) the head of derivation deriv, or
// (wkRelink) an occurrence a count() group links again.
// Items are reused: drain puts each on the free list of its shape once it
// is processed (recycle), push takes it from there, a fork pushes its
// base's pending items as its own (Fork), and a settled fork hands its
// free lists to the next fork of its base (handOn).
type workItem struct {
	stamp Stamp
	kind  workKind
	node  string
	tuple Tuple
	// deriv is the Derivation of the delivery the item is part of, nil for
	// a base event's; it stays the item's across reuse. Its Head.Stamp is
	// filled in on delivery.
	deriv *Derivation
	next  *workItem // a free list's link
}

// delivery is the shape of a derived head's work item: the item and room
// for the derivation it delivers, one block of 352 bytes. A base event's
// item is a bare workItem, 96: a trial that finds no spare scratch makes
// one per change before it has anything to recycle.
type delivery struct {
	it workItem
	d  Derivation
}

type workHeap []*workItem

func (h workHeap) Len() int { return len(h) }
func (h workHeap) Less(i, j int) bool {
	return h[i].stamp.Before(h[j].stamp)
}
func (h workHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *workHeap) Push(x interface{}) { *h = append(*h, x.(*workItem)) }
func (h *workHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Option configures an Engine.
type Option func(*Engine)

// WithDelay sets the cross-node message delay in ticks (default 1).
func WithDelay(ticks int64) Option {
	return func(e *Engine) { e.delay = ticks }
}

// WithDerivationLimit bounds the total number of derivations the engine
// will perform over its lifetime (default 10 million). Exceeding it makes
// Run fail instead of looping forever on a cyclic model (e.g. a
// forwarding loop).
func WithDerivationLimit(n int) Option {
	return func(e *Engine) { e.deriveLimit = n }
}

// WithSeqBand moves the start of the internal band of the stamp sequence
// space (default SeqBandDefault). Every engine splits that space at start:
// externally scheduled base events take sequence numbers 1..start-1 in
// schedule order, and engine-internal events (derived arrivals,
// retractions) take start+1, start+2, ... in processing order. Within one
// tick every base event therefore sorts before every internal event, and a
// stamp depends only on the schedule position (base) or processing
// position (internal) — never on how scheduling interleaves with Run
// calls. Replay sessions rely on this to make a fork of the sealed base
// run byte-identical to a from-scratch replay. An engine schedules at most
// start-1 base events.
func WithSeqBand(start uint64) Option {
	return func(e *Engine) { e.seqBand = start }
}

// SeqBandDefault is the band start every engine uses: large enough that
// no realistic schedule exhausts the base band, small enough that the
// internal band cannot overflow uint64.
const SeqBandDefault = uint64(1) << 32

// WithIndexing enables or disables the secondary hash indexes that
// accelerate rule-body joins (default on). Evaluation results are
// identical either way — bucket rows keep appearance order, so the
// derivation stream, provenance graph, and replay behavior are
// byte-for-byte the same (asserted by TestIndexDifferential). Off is the
// oracle's setting: replay.Oracle() applies it, and package-local tests
// construct it directly; nothing else turns it off.
func WithIndexing(on bool) Option {
	return func(e *Engine) { e.indexing = on }
}

// WithAnalysis enables or disables the static program analysis New runs
// (default on). Programs built through Declare/AddRule are validated
// rule-by-rule already, so the analysis mainly adds whole-program checks
// (stratification, usage, kind conflicts); disabling it skips that work
// for engines constructed in tight loops over known-good programs.
func WithAnalysis(on bool) Option {
	return func(e *Engine) { e.analysis = on }
}

// New creates an engine for the program. A nil observer is allowed.
//
// Unless disabled with WithAnalysis(false), New statically analyzes the
// program (cached per program); Error-severity findings make Run refuse
// to evaluate, and Program.Analyze exposes the full report.
func New(prog *Program, obs Observer, opts ...Option) *Engine {
	if obs == nil {
		obs = NopObserver{}
	}
	e := &Engine{
		prog:        prog,
		obs:         obs,
		delay:       1,
		deriveLimit: 10_000_000,
		indexing:    true,
		analysis:    true,
		highWater:   Stamp{T: math.MinInt64},
		seqBand:     SeqBandDefault,
	}
	for _, o := range opts {
		o(e)
	}
	if e.analysis {
		prog.Analyze() // cache the report Run checks now, with the rules compiled below
	}
	e.compiled = prog.compiled()
	if e.indexing {
		e.plans = buildJoinPlans(prog, e.compiled)
	}
	return e
}

// Program returns the program the engine evaluates.
func (e *Engine) Program() *Program { return e.prog }

// Stats returns activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// Now returns the latest processed stamp.
func (e *Engine) Now() Stamp { return e.now }

// table returns a node's table, or nil. It may be a frozen base's: a
// writer goes through writableTable.
func (e *Engine) table(nodeName, tableName string) *table {
	return e.tables.Get(tableRef{nodeName, tableName})
}

// tableFor returns a node's table, creating it — and the node, on the
// node's first table — if the node holds none yet.
func (e *Engine) tableFor(nodeName string, decl *TableDecl) *table {
	t := e.table(nodeName, decl.Name)
	if t == nil {
		if e.nodes.Get(nodeName) == nil {
			n := &node{name: nodeName, loc: Str(nodeName)}
			e.nodes.Set(nodeName, n)
			e.nodeOrder = append(e.nodeOrder, n)
		}
		t = &table{decl: decl, owner: e}
		// Attach the planned secondary indexes up front: the table is
		// empty here, so incremental maintenance in appear suffices and
		// query-time reads never have to build (or lock) anything.
		for _, spec := range e.plans.forTable(decl.Name) {
			t.indexes = append(t.indexes, tableIndex{spec: spec})
		}
		e.tables.Set(tableRef{nodeName, decl.Name}, t)
	}
	return t
}

// nextStamp allocates a stamp for an engine-internal event (derived
// arrival, retraction, aggregate update). These sort after every base
// event of the same tick.
func (e *Engine) nextStamp(tick int64) Stamp {
	e.seq++
	st := Stamp{T: tick, Seq: e.seqBand + e.seq}
	if e.now.Before(st) {
		e.now = st
	}
	return st
}

// scheduleStamp allocates a stamp for an externally scheduled base event.
// Base events draw from the low band in schedule order, so the stamp
// depends only on the event's position in the schedule — not on how many
// internal events the engine has processed.
func (e *Engine) scheduleStamp(tick int64) (Stamp, error) {
	e.baseSeq++
	if e.baseSeq >= e.seqBand {
		return Stamp{}, fmt.Errorf("ndlog: base-event sequence band exhausted after %d events", e.baseSeq-1)
	}
	st := Stamp{T: tick, Seq: e.baseSeq}
	if e.now.Before(st) {
		e.now = st
	}
	return st, nil
}

// ScheduleInsert schedules a base-tuple insertion at the given tick. A
// tick the engine has already evaluated past is fine: Run repairs the
// evaluated past around it (delta.go), which is how a counterfactual
// change is pushed through a fork of a settled base run.
func (e *Engine) ScheduleInsert(nodeName string, t Tuple, tick int64) error {
	return e.schedule(wkInsertBase, nodeName, t, tick)
}

// ScheduleDelete schedules a base-tuple deletion at the given tick; see
// ScheduleInsert.
func (e *Engine) ScheduleDelete(nodeName string, t Tuple, tick int64) error {
	return e.schedule(wkDeleteBase, nodeName, t, tick)
}

// schedule validates a base event — a declared base table, the declared
// arity, and no deletion of an event tuple — stamps it, and queues it. A
// refused event takes no stamp, so callers that log what they schedule can
// reject it before it reaches the log.
func (e *Engine) schedule(kind workKind, nodeName string, t Tuple, tick int64) error {
	if e.sealed {
		return errSealed
	}
	d := e.prog.Decl(t.Table)
	if d == nil {
		return fmt.Errorf("ndlog: base event for undeclared table %s", t.Table)
	}
	if !d.Base {
		return fmt.Errorf("ndlog: table %s is not a base table", t.Table)
	}
	if len(t.Args) != d.Arity {
		return fmt.Errorf("ndlog: %s has arity %d, got %d args", t.Table, d.Arity, len(t.Args))
	}
	if kind == wkDeleteBase && d.Event {
		return fmt.Errorf("ndlog: cannot delete event tuple %s", t)
	}
	st, err := e.scheduleStamp(tick)
	if err != nil {
		return err
	}
	e.push(kind, nodeName, t, st, nil)
	return nil
}

// push queues the arrival of t on node at st: a base event, or, given d,
// the delivery of d's head. The item comes off the free list of its shape
// when that holds one.
func (e *Engine) push(kind workKind, node string, t Tuple, st Stamp, d *Derivation) *workItem {
	w := e.scratch()
	free := &w.freeBase
	if d != nil {
		free = &w.freeDelivery
	}
	it := *free
	switch {
	case it != nil:
		*free = it.next
	case d != nil:
		dl := new(delivery)
		it, dl.it.deriv = &dl.it, &dl.d
	default:
		it = new(workItem)
	}
	if d != nil {
		*it.deriv = *d
	}
	it.stamp, it.kind, it.node, it.tuple, it.next = st, kind, node, t, nil
	heap.Push(&e.queue, it)
	return it
}

// recycle puts a processed or dropped item on the free list of its shape:
// cleared, so it keeps nothing it pointed at alive, and marked wkFree.
func (e *Engine) recycle(it *workItem) {
	w := e.scratch()
	free := &w.freeBase
	if d := it.deriv; d != nil {
		*d = Derivation{}
		free = &w.freeDelivery
	}
	*it = workItem{kind: wkFree, deriv: it.deriv, next: *free}
	*free = it
}

// IsMutable reports whether the given tuple's table lets DiffProv change
// it: declared base and mutable. Pins of single tuples (§4.7) are replay
// session state (replay.Session.Pin).
func (e *Engine) IsMutable(nodeName string, t Tuple) bool {
	d := e.prog.Decl(t.Table)
	return d != nil && d.Base && d.Mutable
}

// Run drains the work queue, evaluating all scheduled events and their
// consequences in deterministic order. A program the static analysis
// found erroneous is refused outright.
func (e *Engine) Run() error {
	return e.drain(math.MaxInt64)
}

// RunUntil evaluates scheduled events and their consequences while the
// earliest pending work item's tick is <= maxTick, then stops. Work at
// later ticks — including derived arrivals spilled past maxTick by the
// transit delay — stays pending, so a later Run (or a Fork followed by
// Run) continues exactly where this call left off.
func (e *Engine) RunUntil(maxTick int64) error {
	return e.drain(maxTick)
}

// drain is the one evaluation loop: it pops the queue in stamp order while
// the earliest item's tick is <= maxTick and processes each item, then
// drains the argmax re-evaluations the item queued (delta.go). It keeps
// the high-water mark that tells out-of-order work from in-order work, and
// an empty queue settles the engine; a fork hands its scratch on then.
func (e *Engine) drain(maxTick int64) error {
	if e.sealed {
		return errSealed
	}
	if e.analysis {
		if err := firstError(e.prog.Analyze()); err != nil {
			return err
		}
	}
	for e.queue.Len() > 0 && e.queue[0].stamp.T <= maxTick {
		it := heap.Pop(&e.queue).(*workItem)
		if e.now.Before(it.stamp) {
			e.now = it.stamp
		}
		if e.highWater.Before(it.stamp) {
			e.highWater = it.stamp
		}
		if err := e.process(it); err != nil {
			return err
		}
		e.recycle(it)
		if err := e.drainCFReevals(); err != nil {
			return err
		}
	}
	if e.queue.Len() == 0 {
		e.settled = true
		if w := e.work; w != nil && w.looking {
			clear(w.onTheWay)
			w.looking = false
		}
		e.handOn()
	}
	return nil
}

// NextPendingTick reports the tick of the earliest pending work item, or
// false if the queue is empty.
func (e *Engine) NextPendingTick() (int64, bool) {
	if e.queue.Len() == 0 {
		return 0, false
	}
	return e.queue[0].stamp.T, true
}

// DropPendingBaseAfter removes pending base-event work (inserts and
// deletes) scheduled strictly after tick, returning the number removed.
// Pending derived arrivals are kept regardless of tick: truncated replay
// (ReplayUntil) includes the full consequences of every event up to the
// horizon, even when the transit delay carries them past it.
func (e *Engine) DropPendingBaseAfter(tick int64) int {
	kept := e.queue[:0]
	dropped := 0
	for _, it := range e.queue {
		if (it.kind == wkInsertBase || it.kind == wkDeleteBase) && it.stamp.T > tick {
			dropped++
			e.recycle(it)
			continue
		}
		kept = append(kept, it)
	}
	for i := len(kept); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = kept
	if dropped > 0 {
		heap.Init(&e.queue)
	}
	return dropped
}

// process evaluates one work item. Nothing it hands on points into the
// item, which drain recycles once it returns.
func (e *Engine) process(it *workItem) error {
	switch it.kind {
	case wkInsertBase:
		e.stats.BaseInserts++
		key := e.arena.key(it.tuple)
		e.obs.OnBaseInsert(keyedAt(it.node, it.tuple, key, it.stamp))
		return e.appear(it.node, it.tuple, key, it.stamp, nil)
	case wkDeleteBase:
		e.stats.BaseDeletes++
		return e.deleteBase(it.node, it.tuple, it.stamp)
	case wkArriveDerived:
		if e.killedOccs.Get(it.stamp.Seq) {
			// A displaced argmax event winner erased before its delivery:
			// the occurrence never happens (delta.go).
			return nil
		}
		d := it.deriv
		d.Head.Stamp = it.stamp
		e.obs.OnDerive(*d)
		return e.appear(it.node, it.tuple, d.Head.Key, it.stamp, d)
	case wkRelink:
		if e.killedOccs.Get(it.stamp.Seq) {
			return nil // erased after the cut queued it
		}
		return e.fireRule(e.compiled.rules[it.deriv.Rule], 0, it.node, it.tuple, it.deriv.Head.Key, it.stamp)
	default:
		return fmt.Errorf("ndlog: unknown work kind %d", it.kind)
	}
}

// appear handles a tuple occurrence on a node (key is t.Key(), computed by
// whoever created the occurrence), derived by d, or a base insertion when
// d is nil: an event tuple's occurrence is recorded as a row born dead and
// triggers rules; a state tuple is stored (possibly as an additional
// support) and triggers rules on first appearance.
func (e *Engine) appear(nodeName string, t Tuple, key string, st Stamp, d *Derivation) error {
	decl := e.prog.Decl(t.Table)
	if decl == nil {
		return fmt.Errorf("ndlog: tuple for undeclared table %s", t.Table)
	}
	var sup support
	if d != nil {
		sup = support{deriveID: d.ID, rule: d.Rule, body: d.Refs}
	}
	// An appearance always writes (a new row or an extra support), so the
	// table must be writable up front; a row fetched below that the clone
	// shares is copied on its first write (writableRow).
	tb := e.writableTable(nodeName, e.tableFor(nodeName, decl))
	if decl.Event {
		e.stats.Appears++
		e.obs.OnAppear(keyedAt(nodeName, t, key, st), sup.deriveID)
		r := e.newRow(tb, t, key, st, sup)
		if d != nil {
			e.registerEventDeriv(nodeName, r, d.Trigger) // for repair to erase it (delta.go)
		}
		// Events need no delta re-fire: a dead row never joins, so an event
		// occurrence only ever fires rules as their trigger — which this
		// very call does.
		return e.trigger(nodeName, t, key, st)
	}
	index := d == nil || d.AggCount == 0 // a count() chain is cut by its group (cutChain)
	if r := tb.liveRow(key); r != nil {
		// Additional support for an existing tuple.
		r = e.addSupport(tb, r, sup)
		if index {
			e.indexSupport(nodeName, key, sup)
		}
		if sup.deriveID == 0 && st.Before(r.appearedAt) {
			// An out-of-order insertion of a tuple evaluated as inserted
			// later: in the timely run the row exists from st on (delta.go).
			return e.cfBackdateRow(nodeName, tb, decl, r, st)
		}
		return nil
	}
	// Primary-key replacement: a base insertion whose key collides with a
	// live row of a keyed table deletes the old row first.
	if len(decl.Key) > 0 && sup.deriveID == 0 {
		if old := tb.rowAt(tb.keyIdx.Get(primaryKey(decl, t))); old != nil && !old.dead && old.key != key {
			e.dropSupport(nodeName, tb, old.key, 0, KeyedAt{}, st)
		}
	}
	if sup.deriveID == 0 {
		t = t.Clone() // the caller's; a derived head's args are the engine's own
	}
	r := e.newRow(tb, t, key, st, sup)
	// Secondary indexes mirror order: a re-appearance after death is a
	// fresh row and is appended again; dead rows stay behind the probe's
	// liveness filter (and serve temporal as-of lookups).
	for i := range tb.indexes {
		tb.indexes[i].insert(int(r.pos), t)
	}
	if len(decl.Key) > 0 {
		tb.keyIdx.Set(primaryKey(decl, t), r.pos+1)
	}
	if index {
		e.indexSupport(nodeName, key, sup)
	}
	e.stats.Appears++
	e.obs.OnAppear(keyedAt(nodeName, t, key, st), sup.deriveID)
	if err := e.trigger(nodeName, t, key, st); err != nil {
		return err
	}
	if st.Before(e.highWater) {
		// A state row appearing in the evaluated past was missing there:
		// re-fire the later trigger occurrences that would have joined it
		// (delta.go).
		return e.refireForRow(nodeName, r, st, Stamp{})
	}
	return nil
}

// newRow appends a row for key's appearance at st, held by sup, to the
// writable table tb and makes it the key's newest, chained to the one
// before it. An event occurrence is born dead at its own stamp, and a base
// one holds no support.
func (e *Engine) newRow(tb *table, t Tuple, key string, st Stamp, sup support) *row {
	var died Stamp
	if tb.decl.Event {
		died = st
	}
	var sups []support
	if !tb.decl.Event || sup.deriveID != 0 {
		sups = e.arena.supports.take(1, 0)
		sups[0] = sup
	}
	r := e.arena.rows.one()
	*r = row{tuple: t, key: key, appearedAt: st, diedAt: died, supports: sups, dead: tb.decl.Event,
		pos: int32(tb.size()), prev: tb.byKey.Get(key)}
	tb.byKey.Set(key, r.pos+1)
	switch {
	case tb.from == nil:
		tb.order = append(tb.order, r)
	case tb.tail == nil:
		tb.tail = append(make([]*row, 0, 8), r) // room for a trial's first few rows
	default:
		tb.tail = append(tb.tail, r)
	}
	tb.noteOrderAppend()
	return r
}

// indexSupport adds a support's dependent refs under every body row it
// references. A ref's list is a window of the arena: a ref's first
// dependent, or the copy of a base's list on its first write in a fork,
// with room for the one being added.
func (e *Engine) indexSupport(nodeName, key string, sup support) {
	for _, b := range sup.body {
		ref := b.TupleRef()
		cow.Append(&e.dependents, ref, func(d []dependentRef) []dependentRef { return e.arena.deps.clone(d, 1) },
			dependentRef{node: nodeName, key: key, deriveID: sup.deriveID})
	}
}

// unindexSupport removes a retracted support's dependent refs from every
// body row it referenced. Without this, a dependent retracted through one
// body tuple would leave stale refs under all its other body tuples —
// leaking memory under churn and making later retractions scan dead refs.
func (e *Engine) unindexSupport(nodeName, key string, sup support) {
	for _, b := range sup.body {
		ref := b.TupleRef()
		// One walk finds the list and whose it is, and the map is written
		// once: a base's list is spliced in a private copy.
		deps, own := e.dependents.Find(func(m map[TupleRef][]dependentRef) ([]dependentRef, bool) {
			d, ok := m[ref]
			return d, ok
		})
		i := slices.IndexFunc(deps, func(d dependentRef) bool {
			return d.node == nodeName && d.key == key && d.deriveID == sup.deriveID
		})
		if i < 0 {
			continue // none here: the body row itself is being retracted, its refs went wholesale
		}
		if !own {
			deps = e.arena.deps.clone(deps, 0)
		}
		if deps = append(deps[:i], deps[i+1:]...); len(deps) == 0 {
			e.dependents.Delete(ref)
		} else {
			e.dependents.Set(ref, deps)
		}
	}
}

// deleteBase removes one base support from a stored tuple and cascades.
func (e *Engine) deleteBase(nodeName string, t Tuple, st Stamp) error {
	decl := e.prog.Decl(t.Table)
	if decl == nil {
		return fmt.Errorf("ndlog: delete from undeclared table %s", t.Table)
	}
	if decl.Event {
		return fmt.Errorf("ndlog: cannot delete event tuple %s", t)
	}
	tb := e.tableFor(nodeName, decl)
	if key := t.Key(); tb.liveRow(key) != nil && !e.dropSupport(nodeName, tb, key, 0, KeyedAt{}, st) {
		return fmt.Errorf("ndlog: %s on %s has no base support to delete", t, nodeName)
	}
	return nil // deleting a non-existent tuple is a no-op
}

// primaryKey computes the primary-key projection of a tuple.
func primaryKey(decl *TableDecl, t Tuple) string {
	return Text(func(b []byte) []byte {
		for _, i := range decl.Key {
			if i >= 0 && i < len(t.Args) {
				b = append(b, '|')
				b = t.Args[i].appendKey(b)
			}
		}
		return b
	})
}

// retractRow removes a row whose support count dropped to zero, emits
// DISAPPEAR, and cascades underivations to dependents.
func (e *Engine) retractRow(nodeName string, tb *table, r *row, st Stamp, underiveID int64) {
	r = e.killRow(tb, r, st)
	e.stats.Disappears++
	cause := keyedAt(nodeName, r.tuple, r.key, st)
	e.obs.OnDisappear(cause, underiveID)

	ref := cause.TupleRef()
	deps := e.dependents.Get(ref) // read only: may be a frozen base's
	if len(deps) > 0 {
		e.dependents.Delete(ref) // nothing to shadow otherwise: a fork would store a tombstone per leaf row
	}
	for _, dep := range deps {
		e.retractSupport(dep, cause, st)
	}
	if st.Before(e.highWater) {
		// Event-head derivations that joined this row after the stamp of
		// its out-of-order retraction would not have fired in a timely
		// run: erase their occurrences and cascade (delta.go).
		e.eraseEventConsumers(r.appearedAt.Seq, cause, st, true)
	}
}

// retractSupport withdraws a dependent's support because the body row
// cause disappeared; a dependent that is no longer live, or whose support
// an earlier cascade already retracted, is skipped.
func (e *Engine) retractSupport(dep dependentRef, cause KeyedAt, st Stamp) {
	if tb := e.liveDemanded(dep); tb != nil {
		e.dropSupport(dep.node, tb, dep.key, dep.deriveID, cause, st)
	}
}

// liveDemanded finds the table holding a dependent's live row, like
// liveTable; nil also when the row is outside the engine's demand, whose
// derivations the engine leaves as its base run made them.
func (e *Engine) liveDemanded(dep dependentRef) *table {
	tb := e.liveTable(dep.node, tableOfKey(dep.key), dep.key)
	if tb == nil || e.demand != nil && !e.demand.Covers(tb.liveRow(dep.key).tuple) {
		return nil
	}
	return tb
}

// retractDerived removes a specific derivation's support from the stored
// tuple of table tableName with the given key, underiving it (and
// cascading) if that was the last support. The caller always names a head
// it previously derived, so a missing node, table, row, or support is a
// broken invariant: it is counted in Stats.AggRetractMisses rather than
// silently ignored, and the differential suites assert the counter never
// moves.
func (e *Engine) retractDerived(nodeName, tableName, key string, deriveID int64, cause KeyedAt, st Stamp) {
	tb := e.liveTable(nodeName, tableName, key)
	if tb == nil || !e.dropSupport(nodeName, tb, key, deriveID, cause, st) {
		e.stats.AggRetractMisses++
	}
}

// tableOfKey returns the table a canonical tuple key belongs to: the key
// starts with the table name (Tuple.Key: table|arg|...).
func tableOfKey(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}

// liveTable finds the table holding a live row with the given key on a
// node; nil when the table or the row is missing.
func (e *Engine) liveTable(nodeName, tableName, key string) *table {
	if tb := e.table(nodeName, tableName); tb != nil && tb.liveRow(key) != nil {
		return tb
	}
	return nil
}

// dropSupport is the one place a support leaves a row: derivation
// deriveID's support, or a base insertion's for 0, is spliced out of the
// live row key of tb. A base support's removal is reported as a deletion; a
// derived one is unindexed from its body rows' dependents and underived
// under a fresh id and stamp. The row is retracted (cascading) when that
// was its last support, which the dead row keeps, as an event occurrence's
// does (cutChain reads a link there). It reports false, touching nothing,
// when the row holds no such support.
func (e *Engine) dropSupport(nodeName string, tb *table, key string, deriveID int64, cause KeyedAt, st Stamp) bool {
	r := tb.liveRow(key)
	idx := slices.IndexFunc(r.supports, func(s support) bool { return s.deriveID == deriveID })
	if idx < 0 {
		return false
	}
	// The removal writes the row: a table shared with the frozen base is
	// cloned first, and the row copied into the clone (writableRow).
	tb = e.writableTable(nodeName, tb)
	s, last := r.supports[idx], len(r.supports) == 1
	if !last {
		r = e.cutSupport(tb, r, idx)
	}
	var uid int64
	if deriveID == 0 {
		e.obs.OnBaseDelete(keyedAt(nodeName, r.tuple, r.key, st))
	} else {
		e.unindexSupport(nodeName, key, s)
		if st.Before(e.highWater) {
			// An argmax winner retracted before a trigger that already fired
			// must be re-evaluated: a timely run would have chosen another
			// winner at the trigger (delta.go).
			e.noteCFRetraction(s, st)
		}
		e.deriveID++
		uid, st = e.deriveID, e.nextStamp(st.T)
		e.obs.OnUnderive(Underivation{
			ID:       uid,
			DeriveID: s.deriveID,
			Rule:     s.rule,
			Node:     nodeName,
			Head:     keyedAt(nodeName, r.tuple, r.key, st),
			Cause:    cause,
		})
	}
	if last {
		e.retractRow(nodeName, tb, r, st, uid)
	}
	return true
}

// trigger fires every rule that has a body atom over the delta tuple's
// table, with the delta (key is its Key()) bound at that atom.
func (e *Engine) trigger(nodeName string, delta Tuple, key string, st Stamp) error {
	for _, ref := range e.compiled.triggers[delta.Table] {
		if err := e.fireRule(ref.rule, ref.atom, nodeName, delta, key, st); err != nil {
			return err
		}
	}
	return nil
}

// fireRule evaluates one rule with the delta tuple bound at body atom
// deltaAtom, deriving head tuples for every satisfying binding (or only
// the argmax-winning binding).
func (e *Engine) fireRule(r *CompiledRule, deltaAtom int, nodeName string, delta Tuple, key string, st Stamp) error {
	sat, mark, err := e.satBindings(r, deltaAtom, nodeName, delta, key, st)
	for i := 0; err == nil && i < len(sat); i++ {
		err = e.fireBinding(r, deltaAtom, nodeName, sat[i], st)
	}
	e.work.join.release(mark)
	return err
}

// fireBinding derives the head of one satisfying binding, unless the head
// is outside the engine's demand.
func (e *Engine) fireBinding(r *CompiledRule, deltaAtom int, nodeName string, b binding, st Stamp) error {
	if e.demand != nil && !e.demand.derives(r, b.frame) {
		return nil
	}
	if r.countSlot >= 0 {
		return e.aggregateStep(r, nodeName, b, st)
	}
	it, err := e.derive(r, nodeName, b, deltaAtom, st)
	// Remember which winner this trigger derived, so a counterfactual change
	// that flips the winner can retract it (delta.go); an event head's is
	// filed under the trigger on delivery, and only a repair's index of the
	// queue notes it before.
	switch at := (amTrigger{r.idx, st.Seq}); {
	case err != nil || r.argMaxSlot < 0:
	case !r.eventHead:
		e.amDeriv.Set(at, amWinner{dependentRef{it.node, it.deriv.Head.Key, it.deriv.ID}, it.deriv.Refs})
	case e.work.looking:
		e.work.onTheWay[at] = it
	}
	return err
}

// derive produces the rule head for a satisfying binding and returns the
// work item that will deliver it (destination, head tuple, delivery stamp).
// The support references, which are kept, are the binding's.
func (e *Engine) derive(r *CompiledRule, evalNode string, b binding, deltaAtom int, st Stamp) (*workItem, error) {
	head, err := r.evalHead(&e.arena, b.frame)
	if err != nil {
		return nil, fmt.Errorf("ndlog: rule %s head: %v", r.name, err)
	}
	destNode, known, err := r.headLoc.resolve(evalNode, b.frame)
	if err != nil || !known {
		return nil, fmt.Errorf("ndlog: rule %s: unresolved head location: %v", r.name, err)
	}
	if err := e.countDerivation(r.name, evalNode); err != nil {
		return nil, err
	}
	e.deriveID++
	// Heads are always delivered through the work queue — local heads in
	// the same tick, remote heads after the transit delay — so that long
	// derivation chains iterate instead of recursing (a cyclic model
	// must hit the derivation limit, not the Go stack).
	tick := st.T
	if destNode != evalNode {
		e.stats.Messages++
		tick += e.delay
	}
	return e.push(wkArriveDerived, destNode, head, e.nextStamp(tick), &Derivation{
		ID:      e.deriveID,
		Rule:    r.name,
		Node:    evalNode,
		Head:    keyedAt(destNode, head, e.arena.key(head), Stamp{}), // stamp filled on delivery
		Refs:    b.refs,
		Trigger: deltaAtom,
		Trig:    b.body[deltaAtom],
	}), nil
}

// DeriveLimitError is what Run returns when the engine's derivation limit
// (WithDerivationLimit) is exceeded: Rule on Node made the derivation that
// crossed Limit.
type DeriveLimitError struct {
	Rule, Node string
	Limit      int
}

func (e *DeriveLimitError) Error() string {
	return fmt.Sprintf("ndlog: derivation limit %d exceeded by rule %s on %s (non-terminating model? e.g. a forwarding loop)", e.Limit, e.Rule, e.Node)
}

// countDerivation counts one derivation by rule on node — a plain head or an
// aggregate step's — against the derivation limit.
func (e *Engine) countDerivation(rule, node string) error {
	e.stats.Derivations++
	if e.deriveLimit > 0 && e.stats.Derivations > e.deriveLimit {
		return &DeriveLimitError{Rule: rule, Node: node, Limit: e.deriveLimit}
	}
	return nil
}

// Exists reports whether the tuple existed on the node at the given stamp
// (for event tuples: whether it occurred exactly then).
func (e *Engine) Exists(nodeName string, t Tuple, at Stamp) (found bool) {
	e.History(nodeName, t, func(iv Interval) bool {
		found = iv.Contains(at)
		return !found
	})
	return found
}

// ExistsEver reports whether the tuple ever existed on the node up to now.
func (e *Engine) ExistsEver(nodeName string, t Tuple) (found bool) {
	e.History(nodeName, t, func(Interval) bool {
		found = true
		return false
	})
	return found
}

// History calls yield with the existence interval of each appearance of a
// tuple on a node, newest first, until yield returns false. The tuple's
// key is looked up by its bytes, so the walk builds no string and
// allocates nothing.
func (e *Engine) History(nodeName string, t Tuple, yield func(Interval) bool) {
	tb := e.table(nodeName, t.Table)
	if tb == nil {
		return
	}
	var newest int32
	t.WithKey(func(key []byte) {
		newest, _ = tb.byKey.Find(func(m map[string]int32) (int32, bool) {
			p, ok := m[string(key)]
			return p, ok
		})
	})
	// A row's span is open while it lives; an event occurrence's is the
	// zero-length point of its stamp.
	e.appearances(tb, newest, func(r *row) bool {
		return yield(Interval{From: r.appearedAt, To: r.diedAt, Open: !r.dead})
	})
}

// appearances calls yield with the row at position+1 newest and the rows of
// its key before it, newest first, until yield returns false: a tuple's
// history is its rows. A row repair erased is skipped.
func (e *Engine) appearances(tb *table, newest int32, yield func(*row) bool) {
	for r := tb.rowAt(newest); r != nil; r = tb.rowAt(r.prev) {
		if e.erased(tb, r) {
			continue
		}
		if !yield(r) {
			return
		}
	}
}

// erased reports whether repair erased the row (killedOccs): an event
// occurrence, or the head of a count() link cutChain cut.
func (e *Engine) erased(tb *table, r *row) bool {
	return (tb.decl.Event || tb.killed) && e.killedOccs.Get(r.appearedAt.Seq)
}

// TuplesAt returns the tuples of a table that existed on the node at the
// given stamp, in appearance order. Used for temporal joins ("the state
// of the system as of the time at which the missing tuple would have had
// to exist", §4.8).
func (e *Engine) TuplesAt(nodeName, tableName string, at Stamp) []Tuple {
	tb := e.table(nodeName, tableName)
	return tb.tuples(func(r *row) bool { return r.existsAt(at) && !e.erased(tb, r) })
}

// LiveTuples returns the live tuples of a table on a node in appearance
// order.
func (e *Engine) LiveTuples(nodeName, tableName string) []Tuple {
	return e.table(nodeName, tableName).tuples(func(r *row) bool { return !r.dead })
}

// tuples returns the tuples of the rows that pass keep, in appearance
// order; none for a nil table or an event table, whose rows are all dead.
func (tb *table) tuples(keep func(*row) bool) (out []Tuple) {
	if tb == nil || tb.decl.Event {
		return nil
	}
	for _, rows := range tb.parts() {
		for _, r := range rows {
			if keep(r) {
				out = append(out, r.tuple)
			}
		}
	}
	return out
}

// existsAt reports whether the row existed at st.
func (r *row) existsAt(st Stamp) bool {
	return !st.Before(r.appearedAt) && !(r.dead && !st.Before(r.diedAt))
}

// Nodes returns the node names in first-reference order.
func (e *Engine) Nodes() []string {
	out := make([]string, len(e.nodeOrder))
	for i, n := range e.nodeOrder {
		out[i] = n.name
	}
	return out
}
