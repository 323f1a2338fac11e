package scenarios

import (
	"context"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// checkExistAdjacency is the exported-API half of the provenance package's
// test of the same name: the graph has no EXIST index any more — an EXIST
// is the vertex recorded right after its APPEAR, and a tuple's open EXIST
// is the one its latest APPEAR opened — so every graph the scenarios
// produce must be shaped that way, and ExistOf must agree with the map
// the recorder used to keep, rebuilt here by one pass.
func checkExistAdjacency(t *testing.T, what string, prog *ndlog.Program, g *provenance.Graph) {
	t.Helper()
	existOf := map[int]int{}
	g.Vertexes(func(v *provenance.Vertex) {
		switch v.Type {
		case provenance.Exist:
			if len(v.Children()) != 1 || v.Children()[0] != v.ID-1 {
				t.Fatalf("%s: EXIST %d has children %v, want [%d]", what, v.ID, v.Children(), v.ID-1)
			}
			ap := g.Vertex(v.ID - 1)
			if ap.Type != provenance.Appear || ap.TupleRef() != v.TupleRef() || ap.At != v.At {
				t.Fatalf("%s: EXIST %d follows %s, not its own APPEAR", what, v.ID, ap)
			}
			existOf[ap.ID] = v.ID
			if last := g.LastAppear(v.Node, v.Tuple); v.Open && (last == nil || last.ID != ap.ID) {
				t.Fatalf("%s: EXIST %d is open but %s appeared again at %v", what, v.ID, v.Tuple, last)
			}
		case provenance.Appear:
			if d := prog.Decl(v.Tuple.Table); d != nil && d.Event {
				return
			}
			if next := g.Vertex(v.ID + 1); next == nil || next.Type != provenance.Exist {
				t.Fatalf("%s: state APPEAR %d is not followed by its EXIST", what, v.ID)
			}
		}
	})
	g.Vertexes(func(v *provenance.Vertex) {
		want, ok := existOf[v.ID]
		if !ok {
			want = -1
		}
		if got := g.ExistOf(v.ID); got != want {
			t.Fatalf("%s: ExistOf(%d %s) = %d, rebuilt map says %d", what, v.ID, v.Type, got, want)
		}
	})
}

// TestExistFollowsAppearInScenarios checks every scenario's base graph
// and the graph of a counterfactual trial forked from it (the diagnosed
// change set applied to the bad world).
func TestExistFollowsAppearInScenarios(t *testing.T) {
	for _, name := range Names() {
		s, err := Build(name, Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog := s.World.Program()
		checkExistAdjacency(t, name+" base", prog, s.World.Graph())
		res, err := s.Diagnose()
		if err != nil {
			t.Fatalf("%s: Diagnose: %v", name, err)
		}
		trial, err := s.World.Apply(context.Background(), res.Changes)
		if err != nil {
			t.Fatalf("%s: applying the diagnosed changes: %v", name, err)
		}
		if trial.Graph().NumVertexes() == s.World.Graph().NumVertexes() && s.BadSession != nil {
			t.Fatalf("%s: the trial recorded nothing", name)
		}
		checkExistAdjacency(t, name+" trial", prog, trial.Graph())
		checkExistAdjacency(t, name+" base after the trial", prog, s.World.Graph())
	}
}
