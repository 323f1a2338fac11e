package provenance

import (
	"maps"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/ndlog"
)

// labelModel tees an engine's callbacks into the recorder under test and
// notes what each vertex a callback records is about, as the callback names
// it: the node and tuple key of its occurrence, and for a DERIVE or
// UNDERIVE the node that made it. One model follows an execution across
// forks (vertex IDs continue along the chain).
type labelModel struct {
	rec       *Recorder
	about     map[int]ndlog.TupleRef
	derives   map[int64]int // derivation ID to its DERIVE
	underives map[int]int64 // UNDERIVE to the derivation ID it retracts
}

func newLabelModel(rec *Recorder) *labelModel {
	return &labelModel{rec: rec, about: map[int]ndlog.TupleRef{}, derives: map[int64]int{}, underives: map[int]int64{}}
}

func (m *labelModel) forkOnto(rec *Recorder) *labelModel {
	return &labelModel{rec: rec, about: maps.Clone(m.about), derives: maps.Clone(m.derives), underives: maps.Clone(m.underives)}
}

// record runs one callback and names every vertex it recorded.
func (m *labelModel) record(about ndlog.TupleRef, callback func()) (first int) {
	first = m.rec.Graph().NumVertexes()
	callback()
	for id := first; id < m.rec.Graph().NumVertexes(); id++ {
		m.about[id] = about
	}
	return first
}

func (m *labelModel) OnBaseInsert(at ndlog.KeyedAt) {
	m.record(at.TupleRef(), func() { m.rec.OnBaseInsert(at) })
}

func (m *labelModel) OnBaseDelete(at ndlog.KeyedAt) {
	m.record(at.TupleRef(), func() { m.rec.OnBaseDelete(at) })
}

func (m *labelModel) OnAppear(at ndlog.KeyedAt, deriveID int64) {
	m.record(at.TupleRef(), func() { m.rec.OnAppear(at, deriveID) })
}

func (m *labelModel) OnDisappear(at ndlog.KeyedAt, underiveID int64) {
	m.record(at.TupleRef(), func() { m.rec.OnDisappear(at, underiveID) })
}

func (m *labelModel) OnDerive(d ndlog.Derivation) {
	m.derives[d.ID] = m.record(ndlog.TupleRef{Node: d.Node, Key: d.Head.Key}, func() { m.rec.OnDerive(d) })
}

func (m *labelModel) OnUnderive(u ndlog.Underivation) {
	m.underives[m.record(ndlog.TupleRef{Node: u.Node, Key: u.Head.Key}, func() { m.rec.OnUnderive(u) })] = u.DeriveID
}

var _ ndlog.Observer = (*labelModel)(nil)

// check requires every vertex of the chain to read what its callback named,
// through the one label of that node and tuple key, and each UNDERIVE to
// share its DERIVE's label when both name one node. It returns how many
// UNDERIVEs did.
func (m *labelModel) check(t *testing.T, what string, g *Graph) (shared int) {
	t.Helper()
	labels := map[ndlog.TupleRef]*label{}
	g.Vertexes(func(v *Vertex) {
		want := m.about[v.ID]
		if got := v.TupleRef(); got != want {
			t.Fatalf("%s: %s %d is about %v, its callback named %v", what, v.Type, v.ID, got, want)
		}
		if l, ok := labels[want]; ok && l != v.label {
			t.Fatalf("%s: %s %d holds a second label for %v", what, v.Type, v.ID, want)
		}
		labels[want] = v.label
	})
	for u, deriveID := range m.underives {
		d, ok := m.derives[deriveID]
		if !ok || u >= g.NumVertexes() || g.Vertex(d).Node != g.Vertex(u).Node {
			continue
		}
		if g.Vertex(u).label != g.Vertex(d).label {
			t.Fatalf("%s: UNDERIVE %d does not share the label of its DERIVE %d", what, u, d)
		}
		shared++
	}
	return shared
}

// checkCloses requires the view a fork synthesises of every base EXIST it
// closed to be closed, its own vertex and not the base's, and to share the
// base vertex's label; it returns how many there are.
func checkCloses(t *testing.T, what string, g *Graph) (n int) {
	t.Helper()
	for id := range g.closes {
		v, orig := g.vertex(id), g.base.vertex(id)
		if v == orig || v.Open || v.Type != Exist {
			t.Fatalf("%s: EXIST %d, closed by the fork, reads %s from the fork and %s from its base", what, id, v, orig)
		}
		if v.label != orig.label {
			t.Fatalf("%s: the fork's view of %s %d has a label of its own", what, v.Type, id)
		}
		n++
	}
	return n
}

// checkDetached detaches trees projected from the graph and requires them
// to hold none of its labels: each detached vertex holds a copy of its
// label, equal to it, and the copies share exactly as the originals did.
func checkDetached(t *testing.T, what string, g *Graph) {
	t.Helper()
	owned := map[*label]bool{}
	g.Vertexes(func(v *Vertex) { owned[v.label] = true })
	for id := 0; id < g.NumVertexes(); id += 7 {
		if g.vertex(id).Type != Appear {
			continue
		}
		tree := g.Tree(id)
		var orig []*label
		tree.Walk(func(n *Tree) { orig = append(orig, n.Vertex.label) })
		copies, origs := map[*label]*label{}, map[*label]*label{}
		i := 0
		tree.Detach().Walk(func(n *Tree) {
			l, o := n.Vertex.label, orig[i]
			i++
			if owned[l] {
				t.Fatalf("%s: a detached %s holds a label of the graph", what, n.Vertex.Type)
			}
			if l.Node != o.Node || l.key != o.key || l.Tuple.String() != o.Tuple.String() {
				t.Fatalf("%s: detached label %s %q, want %s %q", what, l.Node, l.key, o.Node, o.key)
			}
			if c, ok := copies[o]; ok && c != l {
				t.Fatalf("%s: one label of the graph was copied twice", what)
			}
			if p, ok := origs[l]; ok && p != o {
				t.Fatalf("%s: two labels of the graph share one copy", what)
			}
			copies[o], origs[l] = l, o
		})
	}
}

// TestVertexesShareTheirTuplesLabel runs generated executions on a root, a
// fork that changes the past through the delta phase and a fork of that
// fork (as TestLinksMatchTheIndexMaps does), and requires every vertex
// about one tuple on one node, anywhere in the chain, to hold the one
// label of that node and tuple — an UNDERIVE its DERIVE's, a fork's view
// of a base EXIST it closed the base vertex's — and a detached tree to
// hold none of them.
func TestVertexesShareTheirTuplesLabel(t *testing.T) {
	src := randomProgSrc + `
table seen/1;
rule sn seen(@Sw, N) :- packet(@Sw, Dst), N := count().
`
	underives, closed := 0, 0
	for seed := int64(60); seed < 68; seed++ {
		var root *labelModel
		e, rec, inserted := randomRecordedOn(t, seed, 120, src, func(rec *Recorder) ndlog.Observer {
			root = newLabelModel(rec)
			return root
		})
		underives += root.check(t, "root", rec.Graph())
		rec.Seal()
		e.Seal()

		frec := rec.Fork()
		mid := root.forkOnto(frec)
		f := e.Fork(mid)
		for i, at := range inserted {
			var err error
			switch i % 3 {
			case 0:
				err = f.ScheduleDelete(at.Node, at.Tuple, int64(i))
			case 1:
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
		underives += mid.check(t, "fork", frec.Graph())
		closed += checkCloses(t, "fork", frec.Graph())

		frec.Seal()
		f.Seal()
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
		underives += top.check(t, "fork of the fork", trec.Graph())
		closed += checkCloses(t, "fork of the fork", trec.Graph())
		root.check(t, "root, forked", rec.Graph())
		for what, g := range map[string]*Graph{"root": rec.Graph(), "fork": frec.Graph(), "fork of the fork": trec.Graph()} {
			checkDetached(t, what, g)
		}
	}
	if underives == 0 || closed == 0 {
		t.Errorf("%d UNDERIVEs shared a DERIVE's label and forks closed %d base EXISTs: a path went untested", underives, closed)
	}
}

// TestLabelSlabSlackIsAThirdOfUse: past its first chunk, whatever the label
// slab has handed out, it has allocated at most half as much again — the
// engine slabs' bound (TestSlabSlackIsAThirdOfUse) — and a fork that gives
// up to four tuples their first label pays for one chunk of four. The
// labels it handed out stay where they were.
func TestLabelSlabSlackIsAThirdOfUse(t *testing.T) {
	for _, takes := range []int{1, 4, 5, 34, 6000} {
		var s labelSlab
		var got []*label
		made := 0
		for i := 0; i < takes; i++ {
			got = append(got, s.take("n", ndlog.Tuple{}, strconv.Itoa(i)))
			if len(s.cur) == 1 {
				made += cap(s.cur) // a new chunk
			}
		}
		if limit := takes + max(takes/2, labelChunkMin-1); made > limit {
			t.Errorf("%d labels allocated %d, want at most %d", takes, made, limit)
		}
		if takes <= labelChunkMin && made != labelChunkMin {
			t.Errorf("%d labels allocated %d: the first chunk holds %d", takes, made, labelChunkMin)
		}
		for i, l := range got {
			if l.key != strconv.Itoa(i) {
				t.Fatalf("%d labels: label %d reads %q", takes, i, l.key)
			}
		}
	}
	if size := labelChunkMax * unsafe.Sizeof(label{}); size > 4096 {
		t.Errorf("a full chunk is %d bytes: it leaves the 4 096-byte size class", size)
	}
}

// TestLongChildrenListsKeepTheirLength: a vertex counts its children in a
// byte, and a list of longKids or more — an imperative reducer reports
// every contributing pair — keeps its length in the arena word before it.
// Lists on either side of the boundary read back whole, with capacity equal
// to length, beside short lists recorded around them, and detach whole.
func TestLongChildrenListsKeepTheirLength(t *testing.T) {
	b := NewBuilder(linkFixtureProg)
	var body []ndlog.At
	var ids []int
	for i := 0; i < 600; i++ {
		at, err := b.Insert("n", ndlog.NewTuple("a", ndlog.Int(int64(i))), 1)
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, at)
		ids = append(ids, b.Graph().NumVertexes()-1) // the EXIST a derivation names
	}
	want := map[int][]int{}
	for i, n := range []int{1, longKids - 1, longKids, 2, longKids + 1, 600, 3} {
		if _, err := b.Derive("r", "n", ndlog.NewTuple("h", ndlog.Int(int64(i))), 2, body[:n], n-1); err != nil {
			t.Fatal(err)
		}
		want[b.Graph().NumVertexes()-3] = ids[:n] // DERIVE, then its head's APPEAR and EXIST
	}
	g := b.Graph()
	for id, kids := range want {
		v := g.Vertex(id)
		if got := v.Children(); !slices.Equal(got, kids) || cap(got) != len(got) {
			t.Errorf("DERIVE %d: %d children (cap %d), want the %d recorded", id, len(got), cap(got), len(kids))
		}
		tree := g.Tree(g.HeadAppear(id)).Detach()
		if got := tree.Children[0].Vertex.Children(); !slices.Equal(got, kids) {
			t.Errorf("detached DERIVE %d: %d children, want %d", id, len(got), len(kids))
		}
	}
}
