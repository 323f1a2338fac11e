package provenance

import (
	"testing"
	"unsafe"

	"repro/internal/ndlog"
)

func TestFingerprintsNonZeroAndCached(t *testing.T) {
	_, g := runFwd(t)
	g.Vertexes(func(v *Vertex) {
		if v.Fingerprint() == 0 {
			t.Errorf("vertex %d (%s) has no fingerprint", v.ID, v)
		}
	})
	arr := g.LastAppear("h1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1")))
	tree := g.Tree(arr.ID)
	if tree.Fingerprint() != arr.Fingerprint() {
		t.Error("tree fingerprint must be the root vertex's cached fingerprint")
	}
	var nilTree *Tree
	if nilTree.Fingerprint() != 0 {
		t.Error("nil tree fingerprints to 0")
	}
}

// TestFingerprintIgnoresTimestamps runs the same execution at shifted
// ticks: the provenance trees have different stamps but identical
// structure, so they must hash identically — that is what lets a
// fingerprint comparison stand in for a full structural walk.
func TestFingerprintIgnoresTimestamps(t *testing.T) {
	build := func(pktTick int64) *Graph {
		prog := ndlog.MustParse(`
table flowEntry/3 base mutable;
table packet/1 event base;
rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt), matches(Dst, M), argmax Prio.
`)
		rec := NewRecorder(prog)
		e := ndlog.New(prog, rec)
		e.ScheduleInsert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1), ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("h1")), 0)
		e.ScheduleInsert("s1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1")), pktTick)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.Graph()
	}
	gA, gB := build(10), build(500)
	tup := ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1"))
	ta := gA.Tree(gA.LastAppear("h1", tup).ID)
	tb := gB.Tree(gB.LastAppear("h1", tup).ID)
	if ta.Vertex.At == tb.Vertex.At {
		t.Fatal("test expects the arrivals to carry different stamps")
	}
	if ta.Fingerprint() != tb.Fingerprint() {
		t.Errorf("structurally identical trees hash differently: %x vs %x\n%s\nvs\n%s",
			ta.Fingerprint(), tb.Fingerprint(), ta, tb)
	}
}

func TestFingerprintDistinguishesStructure(t *testing.T) {
	_, g := runFwd(t)
	t1 := g.Tree(g.LastAppear("h1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1"))).ID)
	t2 := g.Tree(g.LastAppear("h2", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.3.1"))).ID)
	if t1.Fingerprint() == t2.Fingerprint() {
		t.Error("different trees must hash differently")
	}
	// Sibling subtrees under one derive (packet APPEAR vs flow-entry
	// EXIST) differ too.
	d := t1.Children[0]
	if d.Children[0].Fingerprint() == d.Children[1].Fingerprint() {
		t.Error("distinct derive children must hash differently")
	}
}

// TestTreeFingerprintFallback: every vertex carries its fingerprint, so a
// detached tree (Tree.Detach) hashes with no fallback. It keeps every
// fingerprint and label, and shares no Children backing array, no tuple
// args and no key bytes with the graph it was projected from (the keys are
// windows of the engine's arena).
func TestTreeFingerprintFallback(t *testing.T) {
	_, g := runFwd(t)
	id := g.LastAppear("h1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1"))).ID
	want, got := g.Tree(id), g.Tree(id).Detach()
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("detached tree hashes %x, want %x", got.Fingerprint(), want.Fingerprint())
	}
	copies := map[*Vertex]*Vertex{}
	var compare func(w, d *Tree)
	compare = func(w, d *Tree) {
		wv, dv := w.Vertex, d.Vertex
		if dv == wv {
			t.Fatalf("%s: detached node still points into the graph", wv)
		}
		if cp, ok := copies[wv]; ok && cp != dv {
			t.Errorf("%s: a vertex the tree shows twice was copied twice", wv)
		}
		copies[wv] = dv
		if dv.Fingerprint() != wv.Fingerprint() || dv.Label() != wv.Label() {
			t.Errorf("detached %s (%x), want %s (%x)", dv.Label(), dv.Fingerprint(), wv.Label(), wv.Fingerprint())
		}
		if len(wv.Children()) > 0 && &dv.Children()[0] == &wv.Children()[0] {
			t.Errorf("%s: detached vertex shares the graph's children arena", wv)
		}
		if len(wv.Tuple.Args) > 0 && &dv.Tuple.Args[0] == &wv.Tuple.Args[0] {
			t.Errorf("%s: detached vertex shares the engine's tuple args", wv)
		}
		if dv.key != wv.key || unsafe.StringData(dv.key) == unsafe.StringData(wv.key) {
			t.Errorf("%s: detached vertex key %q shares the engine's bytes or differs from %q", wv, dv.key, wv.key)
		}
		if len(w.Children) != len(d.Children) {
			t.Fatalf("%s: %d children detached, want %d", wv, len(d.Children), len(w.Children))
		}
		for i := range w.Children {
			compare(w.Children[i], d.Children[i])
		}
	}
	compare(want, got)
}
