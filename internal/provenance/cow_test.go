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
