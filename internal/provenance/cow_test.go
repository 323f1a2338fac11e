package provenance

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ndlog"
)

// cowSerialize renders every vertex of a graph, ID first, so two graphs
// compare byte-identical exactly when their vertexes are identical.
func cowSerialize(g *Graph) string {
	var sb strings.Builder
	g.Vertexes(func(v *Vertex) {
		fmt.Fprintf(&sb, "%d %s trig=%d kids=%v\n", v.ID, v.String(), v.Trigger, v.Children)
	})
	return sb.String()
}

// TestGraphSealedRejectsRecord pins the seal contract at the graph layer:
// recording into a sealed graph is a bug (it would corrupt every live
// fork sharing the vertex arena) and must panic, not silently append.
func TestGraphSealedRejectsRecord(t *testing.T) {
	_, g := runFwd(t)
	rec := NewRecorder(ndlog.MustParse(`table x/1 base;`))
	rec.Seal()
	if !rec.Sealed() {
		t.Fatal("Seal did not mark the recorder sealed")
	}
	_ = g
	defer func() {
		if recover() == nil {
			t.Error("recording into a sealed graph did not panic")
		}
	}()
	rec.graph.add(&Vertex{Type: Exist, Trigger: -1})
}

// TestRecorderCoWForkLayers drives a sealed recorder through two
// generations of forks — a fork, then (sealed in turn) a fork of that
// fork, whose reads walk a two-link overlay chain — and requires every
// layer to agree with a straight-through run.
func TestRecorderCoWForkLayers(t *testing.T) {
	prog := ndlog.MustParse(`
table link/2 base mutable;
table reach/2;
rule direct reach(@S, S, D) :- link(@S, S, D).
`)
	drive := func(rec *Recorder, extra bool) *ndlog.Engine {
		e := ndlog.New(prog, rec, ndlog.WithSeqBand(ndlog.SeqBandDefault))
		if err := e.ScheduleInsert("a", ndlog.NewTuple("link", ndlog.Str("a"), ndlog.Str("b")), 0); err != nil {
			t.Fatal(err)
		}
		if err := e.ScheduleDelete("a", ndlog.NewTuple("link", ndlog.Str("a"), ndlog.Str("b")), 2); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if extra {
			if err := e.ScheduleInsert("a", ndlog.NewTuple("link", ndlog.Str("a"), ndlog.Str("c")), 4); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}

	// Straight-through references, with and without the suffix.
	refBase := NewRecorder(prog)
	drive(refBase, false)
	wantBase := cowSerialize(refBase.Graph())
	refFull := NewRecorder(prog)
	drive(refFull, true)
	wantFull := cowSerialize(refFull.Graph())

	// Prefix, sealed. The fork records the suffix (including a disappear,
	// which tombstones an open-exist entry inherited from the base).
	rec := NewRecorder(prog)
	e := drive(rec, false)
	rec.Seal()
	e.Seal()
	frec := rec.Fork()
	f := e.Fork(frec)
	if err := f.ScheduleInsert("a", ndlog.NewTuple("link", ndlog.Str("a"), ndlog.Str("c")), 4); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cowSerialize(frec.Graph()); got != wantFull {
		t.Errorf("CoW fork graph differs from straight-through:\ngot:\n%s\nwant:\n%s", got, wantFull)
	}
	if got := cowSerialize(rec.Graph()); got != wantBase {
		t.Errorf("sealed base graph perturbed by fork:\ngot:\n%s\nwant:\n%s", got, wantBase)
	}

	// A fork of the (now sealed) fork reads through both links of the
	// chain identically.
	frec.Seal()
	f.Seal()
	second := frec.Fork()
	f.Fork(second)
	if got := cowSerialize(second.Graph()); got != wantFull {
		t.Errorf("fork of a fork differs:\ngot:\n%s\nwant:\n%s", got, wantFull)
	}

	// And it still answers indexed queries — from the middle link (the
	// suffix) and from the root (the base).
	if v := second.Graph().LastAppear("a", ndlog.NewTuple("reach", ndlog.Str("a"), ndlog.Str("c"))); v == nil {
		t.Error("fork of a fork lost the first fork's appearsByTuple entries")
	}
	if v := second.Graph().LastAppear("a", ndlog.NewTuple("reach", ndlog.Str("a"), ndlog.Str("b"))); v == nil {
		t.Error("fork of a fork lost the base's appearsByTuple entries")
	}
}

// TestRecordCycleAllocationBudget bounds what recording costs once keys are
// carried: one two-atom derivation whose head appears and disappears again,
// on a fork (every lookup walks the overlay chain), must allocate its four
// vertexes, their child slices and amortised index growth — and no key
// string: 10 allocations. With per-callback key building (refKey's Sprintf
// and boxing, tupleKey, a Tuple.Key per vertex label) the same cycle read
// 29 at commit c85e625.
func TestRecordCycleAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	prog := ndlog.MustParse(`
table a/1 base;
table b/1 base;
table h/1;
rule r h(@N, X) :- a(@N, X), b(@N, X).
`)
	keyed := func(t ndlog.Tuple, seq uint64) ndlog.KeyedAt {
		return ndlog.KeyedAt{At: ndlog.At{Node: "n", Tuple: t, Stamp: ndlog.Stamp{T: 1, Seq: seq}}, Key: t.Key()}
	}
	base := NewRecorder(prog)
	a, b := keyed(ndlog.NewTuple("a", ndlog.Int(1)), 1), keyed(ndlog.NewTuple("b", ndlog.Int(1)), 2)
	for _, at := range []ndlog.KeyedAt{a, b} {
		base.OnBaseInsert(at)
		base.OnAppear(at, 0)
	}
	base.Seal()
	rec := base.Fork()

	body := []ndlog.At{a.At, b.At}
	refs := []ndlog.BodyRef{{Node: "n", Key: a.Key, Seq: 1}, {Node: "n", Key: b.Key, Seq: 2}}
	head := ndlog.NewTuple("h", ndlog.Int(1))
	seq, id := uint64(2), int64(0)
	cycle := func() {
		seq, id = seq+2, id+1
		up, down := keyed(head, seq), keyed(head, seq+1)
		rec.OnDerive(ndlog.Derivation{ID: id, Rule: "r", Node: "n", Head: up, Body: body, Refs: refs, Trigger: 1})
		rec.OnAppear(up, id)
		rec.OnDisappear(down, 0)
	}
	const budget = 12
	if got := testing.AllocsPerRun(500, cycle); got > budget {
		t.Errorf("derive+appear+disappear on a fork: %.1f allocs, budget %d", got, budget)
	}
	// The cycles recorded what they should have: the last DERIVE has both
	// body EXISTs as children and triggered on the second.
	g := rec.Graph()
	dv, ok := g.deriveVertex(id)
	if !ok || len(g.Vertex(dv).Children) != 2 || g.Vertex(dv).Trigger != 1 {
		t.Fatalf("last derivation recorded as %+v (found %v)", g.Vertex(dv), ok)
	}
	if g.NumVertexes() != base.Graph().NumVertexes()+4*int(id) {
		t.Errorf("%d vertexes after %d cycles over a base of %d", g.NumVertexes(), id, base.Graph().NumVertexes())
	}
}
