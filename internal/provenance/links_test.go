package provenance

import (
	"bytes"
	"maps"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ndlog"
)

// linkModel is the reference model of the graph's reverse edges: the six
// index maps the recorder kept before the edges moved into the vertexes
// (DESIGN.md §3), maintained here exactly as it maintained them. It tees
// an engine's callbacks into the recorder under test and into the maps,
// flat — one model follows an execution across forks, which is what a fork
// chain has to be indistinguishable from.
type linkModel struct {
	rec *Recorder

	appearByRef    map[ndlog.BodyRef]int
	appearsByTuple map[ndlog.TupleRef][]int
	lastDisappear  map[ndlog.TupleRef]int
	appearsByTable map[tableRef][]int
	triggerParents map[int][]int
	headAppear     map[int]int

	existOf       map[int]int   // APPEAR to the EXIST recorded right after it
	byDerive      map[int64]int // derivation / underivation ID to vertex
	children      map[int][]int // what a DERIVE's or UNDERIVE's references resolve to
	pendingInsert int
}

func newLinkModel(rec *Recorder) *linkModel {
	return &linkModel{
		rec:            rec,
		appearByRef:    map[ndlog.BodyRef]int{},
		appearsByTuple: map[ndlog.TupleRef][]int{},
		lastDisappear:  map[ndlog.TupleRef]int{},
		appearsByTable: map[tableRef][]int{},
		triggerParents: map[int][]int{},
		headAppear:     map[int]int{},
		existOf:        map[int]int{},
		byDerive:       map[int64]int{},
		children:       map[int][]int{},
		pendingInsert:  -1,
	}
}

// forkOnto returns a copy of the model that goes on with a fork's
// recorder; the receiver stays what the sealed base has to keep answering.
func (m *linkModel) forkOnto(rec *Recorder) *linkModel {
	return &linkModel{
		rec:            rec,
		appearByRef:    maps.Clone(m.appearByRef),
		appearsByTuple: cloneLists(m.appearsByTuple),
		lastDisappear:  maps.Clone(m.lastDisappear),
		appearsByTable: cloneLists(m.appearsByTable),
		triggerParents: cloneLists(m.triggerParents),
		headAppear:     maps.Clone(m.headAppear),
		existOf:        maps.Clone(m.existOf),
		byDerive:       maps.Clone(m.byDerive),
		children:       cloneLists(m.children),
		pendingInsert:  m.pendingInsert,
	}
}

func cloneLists[K comparable](in map[K][]int) map[K][]int {
	out := make(map[K][]int, len(in))
	for k, l := range in {
		out[k] = slices.Clone(l)
	}
	return out
}

func (m *linkModel) last() int { return m.rec.Graph().NumVertexes() - 1 }

// bodyVertex is the recorder's: the EXIST of the appearance a reference
// names, the APPEAR itself for an event, -1 for one nobody recorded.
func (m *linkModel) bodyVertex(b ndlog.BodyRef) int {
	ap, ok := m.appearByRef[b]
	if !ok {
		return -1
	}
	if ex, ok := m.existOf[ap]; ok {
		return ex
	}
	return ap
}

func (m *linkModel) OnBaseInsert(at ndlog.KeyedAt) {
	m.rec.OnBaseInsert(at)
	m.pendingInsert = m.last()
}

func (m *linkModel) OnBaseDelete(at ndlog.KeyedAt) { m.rec.OnBaseDelete(at) }

func (m *linkModel) OnDerive(d ndlog.Derivation) {
	m.rec.OnDerive(d)
	id := m.last()
	m.byDerive[d.ID] = id
	refs, trigger := d.Refs, d.Trigger
	if d.AggCount > 0 && len(refs) > 0 {
		refs, trigger = refs[:1], 0 // a delta: the new contributor, which is the trigger
	}
	kids := []int{}
	for i, b := range refs {
		child := m.bodyVertex(b)
		if child < 0 {
			continue
		}
		if i == trigger {
			m.triggerParents[child] = append(m.triggerParents[child], id)
		}
		kids = append(kids, child)
	}
	m.children[id] = kids
}

func (m *linkModel) OnAppear(at ndlog.KeyedAt, deriveID int64) {
	ap := m.last() + 1
	m.rec.OnAppear(at, deriveID)
	cause := -1
	if deriveID != 0 {
		if dv, ok := m.byDerive[deriveID]; ok {
			cause = dv
		}
	} else if m.pendingInsert >= 0 {
		cause, m.pendingInsert = m.pendingInsert, -1
	}
	if cause >= 0 {
		m.headAppear[cause] = ap
	}
	m.appearByRef[at.Ref()] = ap
	m.appearsByTuple[at.TupleRef()] = append(m.appearsByTuple[at.TupleRef()], ap)
	tr := tableRef{node: at.Node, table: at.Tuple.Table}
	m.appearsByTable[tr] = append(m.appearsByTable[tr], ap)
	if m.last() == ap+1 {
		m.existOf[ap] = ap + 1
	}
}

func (m *linkModel) OnUnderive(u ndlog.Underivation) {
	m.rec.OnUnderive(u)
	id := m.last()
	m.byDerive[u.ID] = id
	m.children[id] = []int{}
	if dv, ok := m.lastDisappear[u.Cause.TupleRef()]; ok {
		m.children[id] = []int{dv}
	}
}

func (m *linkModel) OnDisappear(at ndlog.KeyedAt, underiveID int64) {
	m.rec.OnDisappear(at, underiveID)
	m.lastDisappear[at.TupleRef()] = m.last()
}

var _ ndlog.Observer = (*linkModel)(nil)

// tableRef identifies a table on a node: the model's key for the APPEARs
// FindAppears lists.
type tableRef struct{ node, table string }

// check requires every reverse-edge reader of the graph to answer what
// the model's maps do, in order.
func (m *linkModel) check(t *testing.T, what string, g *Graph) {
	t.Helper()
	orNone := func(id int, ok bool) int {
		if !ok {
			return -1
		}
		return id
	}
	g.Vertexes(func(v *Vertex) {
		if got, want := g.TriggerParents(v.ID), m.triggerParents[v.ID]; !slices.Equal(got, want) {
			t.Fatalf("%s: TriggerParents(%d %s) = %v, model %v", what, v.ID, v.Type, got, want)
		}
		want, ok := m.headAppear[v.ID]
		if got := g.HeadAppear(v.ID); got != orNone(want, ok) {
			t.Fatalf("%s: HeadAppear(%d %s) = %d, model %d", what, v.ID, v.Type, got, orNone(want, ok))
		}
		want, ok = m.existOf[v.ID]
		if got := g.ExistOf(v.ID); got != orNone(want, ok) {
			t.Fatalf("%s: ExistOf(%d %s) = %d, model %d", what, v.ID, v.Type, got, orNone(want, ok))
		}
		if kids, ok := m.children[v.ID]; ok != (v.Type == Derive || v.Type == Underive) || ok && !slices.Equal(v.Children(), kids) {
			t.Fatalf("%s: %s %d has children %v, the model resolves %v (a DERIVE or UNDERIVE: %v)", what, v.Type, v.ID, v.Children(), kids, ok)
		}
	})
	for tk, ids := range m.appearsByTuple {
		tu := g.Vertex(ids[0]).Tuple
		if got := g.AppearVertexes(tk.Node, tu); !slices.Equal(got, ids) {
			t.Fatalf("%s: AppearVertexes(%s, %s) = %v, model %v", what, tk.Node, tu, got, ids)
		}
		if got := g.LastAppear(tk.Node, tu); got == nil || got.ID != ids[len(ids)-1] {
			t.Fatalf("%s: LastAppear(%s, %s) = %v, model %d", what, tk.Node, tu, got, ids[len(ids)-1])
		}
	}
	for tr, ids := range m.appearsByTable {
		var got []int
		for _, v := range g.FindAppears(tr.node, tr.table, nil) {
			got = append(got, v.ID)
		}
		if !slices.Equal(got, ids) {
			t.Fatalf("%s: FindAppears(%s, %s) = %v, model %v", what, tr.node, tr.table, got, ids)
		}
	}
	for b, ap := range m.appearByRef {
		if got := g.appearAt(b); got != ap {
			t.Fatalf("%s: appearAt(%v) = %d, model %d", what, b, got, ap)
		}
	}
	for tk, d := range m.lastDisappear {
		if got := g.newest(tk, newestDisappear); got != d {
			t.Fatalf("%s: newest DISAPPEAR of %v = %d, model %d", what, tk, got, d)
		}
	}
}

// slabBytes copies the raw bytes of every record and ID-table entry the
// graph recorded itself (pointers and all: the children windows, labels
// and rule names must stay the very same ones), so a sealed base can be
// shown untouched by its forks.
func slabBytes(g *Graph) []byte {
	var out []byte
	for i := 0; i < g.derivs.n; i++ {
		out = append(out, unsafe.Slice((*byte)(unsafe.Pointer(g.derivs.at(i))), unsafe.Sizeof(derivation{}))...)
	}
	for i := 0; i < g.underivs.n; i++ {
		out = append(out, unsafe.Slice((*byte)(unsafe.Pointer(g.underivs.at(i))), unsafe.Sizeof(underivation{}))...)
	}
	for i := 0; i < g.apps.n; i++ {
		out = append(out, unsafe.Slice((*byte)(unsafe.Pointer(g.apps.at(i))), unsafe.Sizeof(appearance{}))...)
	}
	for i := 0; i < g.n; i++ {
		e := g.ids.at(i >> 2)[i&3]
		out = append(out, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
	}
	return out
}

// TestLinksMatchTheIndexMaps runs generated executions — the random
// program plus a count() aggregate over its packets — on a root, a fork
// that changes the past through the delta phase (re-fired derivations
// whose trigger child sits in the base, retractions of inherited tuples,
// appearances at past stamps) and a fork of that fork, and requires the
// in-vertex links and overflow tables of all three to read exactly as the
// six index maps they replaced.
func TestLinksMatchTheIndexMaps(t *testing.T) {
	src := randomProgSrc + `
table seen/1;
rule sn seen(@Sw, N) :- packet(@Sw, Dst), N := count().
`
	overflowed := 0
	for seed := int64(60); seed < 76; seed++ {
		var root *linkModel
		e, rec, inserted := randomRecordedOn(t, seed, 120, src, func(rec *Recorder) ndlog.Observer {
			root = newLinkModel(rec)
			return root
		})
		root.check(t, "root", rec.Graph())
		rec.Seal()
		e.Seal()
		sealed := slabBytes(rec.Graph())

		frec := rec.Fork()
		mid := root.forkOnto(frec)
		f := e.Fork(mid)
		for i, at := range inserted {
			var err error
			switch i % 3 {
			case 0:
				err = f.ScheduleDelete(at.Node, at.Tuple, int64(i))
			case 1: // a sibling entry that outranks it from the start: base packets re-fire
				fe := ndlog.NewTuple("flowEntry", ndlog.Int(11+int64(i)), at.Tuple.Args[1], at.Tuple.Args[2])
				err = f.ScheduleInsert(at.Node, fe, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		if frec.Graph().NumVertexes() == rec.Graph().NumVertexes() {
			t.Fatalf("seed %d: the fork recorded nothing", seed)
		}
		mid.check(t, "fork", frec.Graph())
		overflowed += len(frec.Graph().trigOver)

		frec.Seal()
		f.Seal()
		midSealed := slabBytes(frec.Graph())
		trec := frec.Fork()
		top := mid.forkOnto(trec)
		ff := f.Fork(top)
		for i, at := range inserted {
			if err := ff.ScheduleInsert(at.Node, ndlog.NewTuple("packet", at.Tuple.Args[1].(ndlog.Prefix).Addr), int64(300+i)); err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				if err := ff.ScheduleDelete(at.Node, at.Tuple, int64(300+i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ff.Run(); err != nil {
			t.Fatal(err)
		}
		top.check(t, "fork of the fork", trec.Graph())
		mid.check(t, "fork, forked", frec.Graph())
		root.check(t, "root, forked", rec.Graph())
		if !bytes.Equal(slabBytes(rec.Graph()), sealed) || !bytes.Equal(slabBytes(frec.Graph()), midSealed) {
			t.Fatalf("seed %d: a fork wrote into the vertexes of its sealed base", seed)
		}
	}
	if overflowed == 0 {
		t.Error("no fork triggered a derivation off a base vertex: the overflow path went untested")
	}
}

// linkFixture is a hand-driven recording: tuples a(i) on node n, appeared
// one per call, and derivations of h(i) from them.
type linkFixture struct {
	seq      uint64
	deriveID int64
}

func (fx *linkFixture) keyed(table string, i int64) ndlog.KeyedAt {
	fx.seq++
	tu := ndlog.NewTuple(table, ndlog.Int(i))
	return ndlog.KeyedAt{At: ndlog.At{Node: "n", Tuple: tu, Stamp: ndlog.Stamp{T: 1, Seq: fx.seq}}, Key: tu.Key()}
}

// insert records INSERT, APPEAR and EXIST of a(i) and returns the reference
// a derivation names it by.
func (fx *linkFixture) insert(rec *Recorder, i int64) ndlog.BodyRef {
	at := fx.keyed("a", i)
	rec.OnBaseInsert(at)
	rec.OnAppear(at, 0)
	return at.Ref()
}

// derive records the DERIVE of h(i) from the body, triggered by its last
// element, and returns the vertex and what OnAppear has to be told.
func (fx *linkFixture) derive(rec *Recorder, i int64, body ...ndlog.BodyRef) (vertex int, head ndlog.KeyedAt, id int64) {
	fx.deriveID++
	head = fx.keyed("h", i)
	rec.OnDerive(ndlog.Derivation{ID: fx.deriveID, Rule: "r", Node: "n", Head: head, Refs: body, Trigger: len(body) - 1})
	return rec.Graph().NumVertexes() - 1, head, fx.deriveID
}

var linkFixtureProg = ndlog.MustParse(`
table a/1 base mutable;
table h/1;
rule r h(@N, X) :- a(@N, X).
`)

// TestOverflowReadsAfterTheBase: a derivation whose trigger child, and an
// appearance whose cause, sit in a sealed base go to the fork's overflow
// tables, and read back after what the base itself recorded — from the
// fork, from a fork of it, and not at all from the base.
func TestOverflowReadsAfterTheBase(t *testing.T) {
	var fx linkFixture
	root := NewRecorder(linkFixtureProg)
	a := fx.insert(root, 1)
	exA := root.Graph().NumVertexes() - 1
	d1, h1, id1 := fx.derive(root, 1, a)
	root.OnAppear(h1, id1)
	d2, h2, id2 := fx.derive(root, 2, a) // sealed in flight: its head appears in the fork
	root.Seal()

	mid := root.Fork()
	mid.OnAppear(h2, id2)
	apH2 := mid.Graph().NumVertexes() - 2
	d3, _, _ := fx.derive(mid, 3, a)
	d4, _, _ := fx.derive(mid, 4, a)
	if g := mid.Graph(); len(g.headOver) != 1 || len(g.trigOver) != 1 {
		t.Fatalf("the fork's overflow holds %d heads and %d trigger lists, want 1 and 1", len(g.headOver), len(g.trigOver))
	}
	mid.Seal()
	top := mid.Fork()
	d5, _, _ := fx.derive(top, 5, a)
	b := fx.insert(top, 2) // recorded by top itself: linked in the vertex, no overflow entry
	exB := top.Graph().NumVertexes() - 1
	d6, h6, id6 := fx.derive(top, 6, a, b)
	top.OnAppear(h6, id6)
	if g := top.Graph(); g.headOver != nil || len(g.trigOver) != 1 {
		t.Fatalf("the top fork's overflow holds %d heads and %d trigger lists, want none and 1", len(g.headOver), len(g.trigOver))
	}

	for _, c := range []struct {
		what string
		g    *Graph
		want []int
	}{
		{"root", root.Graph(), []int{d1, d2}},
		{"fork", mid.Graph(), []int{d1, d2, d3, d4}},
		{"fork of the fork", top.Graph(), []int{d1, d2, d3, d4, d5}},
	} {
		if got := c.g.TriggerParents(exA); !slices.Equal(got, c.want) {
			t.Errorf("%s: TriggerParents(EXIST a) = %v, want %v", c.what, got, c.want)
		}
	}
	if got := top.Graph().TriggerParents(exB); !slices.Equal(got, []int{d6}) {
		t.Errorf("TriggerParents(EXIST b) = %v, want [%d]", got, d6)
	}
	if got := root.Graph().HeadAppear(d2); got != -1 {
		t.Errorf("the sealed root gives DERIVE %d the head %d, recorded by its fork", d2, got)
	}
	for what, g := range map[string]*Graph{"fork": mid.Graph(), "fork of the fork": top.Graph()} {
		if got := g.HeadAppear(d2); got != apH2 {
			t.Errorf("%s: HeadAppear(%d) = %d, want %d (from the overflow)", what, d2, got, apH2)
		}
		if got := g.HeadAppear(d1); got != d1+1 {
			t.Errorf("%s: HeadAppear(%d) = %d, want %d (from the base vertex)", what, d1, got, d1+1)
		}
	}
	// The reverse-edge readers answer for the vertex types that have the
	// edge and for nothing else, whatever the shared link slots hold.
	if got := top.Graph().HeadAppear(exA); got != -1 {
		t.Errorf("HeadAppear of an EXIST = %d", got)
	}
	if got := top.Graph().TriggerParents(d1); got != nil {
		t.Errorf("TriggerParents of a DERIVE = %v", got)
	}
}

// TestForksLeaveTheBaseVertexesAlone: a hundred forks each derive off the
// sealed base's tuples, give its in-flight derivation a head, retract one
// of its tuples (closing a base EXIST with a close stamp of its own) and
// re-insert it; the base's records are byte-for-byte what they were.
func TestForksLeaveTheBaseVertexesAlone(t *testing.T) {
	var fx linkFixture
	root := NewRecorder(linkFixtureProg)
	a, b := fx.insert(root, 1), fx.insert(root, 2)
	_, head, id := fx.derive(root, 1, a, b)
	root.Seal()
	before := slabBytes(root.Graph())
	tuples := root.Graph().NumVertexes()
	for i := 0; i < 100; i++ {
		rec := root.Fork()
		rec.OnAppear(head, id)
		fx.derive(rec, int64(10+i), a, b)
		fx.derive(rec, int64(10+i), b, a)
		gone := fx.keyed("a", 1)
		rec.OnBaseDelete(gone)
		rec.OnDisappear(gone, 0)
		fx.insert(rec, 1)
		if got := rec.Graph().NumVertexes() - tuples; got != 2+2+2+3 {
			t.Fatalf("fork %d recorded %d vertexes, want 9", i, got)
		}
		if ex := rec.Graph().Vertex(2); ex.Type != Exist || ex.Open {
			t.Fatalf("fork %d did not close the base's EXIST of a(1): %s", i, ex)
		}
	}
	if !bytes.Equal(slabBytes(root.Graph()), before) {
		t.Error("the sealed base's vertexes changed under its forks")
	}
	if ex := root.Graph().Vertex(2); !ex.Open {
		t.Errorf("the sealed base's EXIST of a(1) was closed by a fork: %s", ex)
	}
}

// TestFlappingTupleResolvesByAppearance: a tuple that appears and
// disappears 10 000 times — most of it in a sealed base, the rest in a
// fork — resolves a reference to its newest appearance at the first vertex
// the walk looks at, one to its oldest after walking them all, and one
// whose Seq no APPEAR carries (a row the delta phase backdated) to nothing.
func TestFlappingTupleResolvesByAppearance(t *testing.T) {
	var fx linkFixture
	const flaps, inBase = 10000, 9000
	rec := NewRecorder(linkFixtureProg)
	refs, appears := make([]ndlog.BodyRef, flaps), make([]int, flaps)
	for i := 0; i < flaps; i++ {
		if i == inBase {
			rec.Seal()
			rec = rec.Fork()
		}
		refs[i] = fx.insert(rec, 1)
		appears[i] = rec.Graph().NumVertexes() - 2
		gone := fx.keyed("a", 1)
		rec.OnBaseDelete(gone)
		rec.OnDisappear(gone, 0)
	}
	g := rec.Graph()
	for _, i := range []int{0, 1, inBase - 1, inBase, flaps - 2, flaps - 1} {
		if got := g.appearAt(refs[i]); got != appears[i] {
			t.Errorf("appearance %d resolves to vertex %d, want %d", i, got, appears[i])
		}
	}
	newest := refs[flaps-1]
	if first := int(g.byTuple[newest.TupleRef()].newest[newestAppear]) - 1; first != appears[flaps-1] {
		t.Errorf("the walk starts at vertex %d, not at the newest APPEAR %d", first, appears[flaps-1])
	}
	if got := rec.bodyVertex(newest); got != appears[flaps-1]+1 {
		t.Errorf("bodyVertex(newest) = %d, want its EXIST %d", got, appears[flaps-1]+1)
	}
	unseen := newest
	unseen.Seq = fx.seq + 1
	if got := g.appearAt(unseen); got != -1 {
		t.Errorf("a Seq no APPEAR carries resolves to vertex %d", got)
	}
	if got := rec.bodyVertex(unseen); got != -1 {
		t.Errorf("bodyVertex of a Seq no APPEAR carries = %d", got)
	}
	if got := g.AppearVertexes("n", ndlog.NewTuple("a", ndlog.Int(1))); !slices.Equal(got, appears) {
		t.Errorf("AppearVertexes lists %d appearances (first %v), want the %d recorded, oldest first", len(got), got[:min(3, len(got))], flaps)
	}
}
