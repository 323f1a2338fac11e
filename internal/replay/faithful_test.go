package replay_test

import (
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/scenarios"
)

// faithfulLeaves is how many leaf INSERTs of each tree the faithfulness
// law removes.
const faithfulLeaves = 4

// TestRecordedTreesAreFaithful is the faithfulness yardstick of
// Provenance Traces (PAPERS.md) on the six replayable scenarios' good and
// bad trees: a tree names the events its root rests on, so rebuilding the
// execution from a log without one of its leaf INSERTs — the seed, then
// the others in preorder, up to faithfulLeaves of them — must make the
// root tuple stop appearing, or change the derivation it appears by.
func TestRecordedTreesAreFaithful(t *testing.T) {
	eachReplayable(t, func(t *testing.T, s *scenarios.Scenario) {
		for _, side := range []struct {
			name string
			tree *provenance.Tree
			sess *replay.Session
		}{
			{"good", s.Good, goodSession(t, s)},
			{"bad", s.Bad, s.BadSession},
		} {
			root := side.tree.Vertex
			want := causeFingerprint(side.tree)
			leaves, gone := leafInserts(t, side.tree), 0
			for _, leaf := range leaves {
				g := rebuildWithout(t, side.sess, leaf)
				aps := g.AppearVertexes(root.Node, root.Tuple)
				if len(aps) == 0 {
					gone++
				}
				for _, ap := range aps {
					if causeFingerprint(g.Tree(ap)) == want {
						t.Errorf("%s tree: without %s at t=%d, %s still appears by the same derivation", side.name, leaf.Tuple, leaf.At.T, root.Tuple)
					}
				}
			}
			t.Logf("%s tree: %d leaf INSERTs removed one at a time; the root stopped appearing %d times and changed its derivation otherwise", side.name, len(leaves), gone)
		}
	})
}

// causeFingerprint is the fingerprint of what a tree's root APPEAR appears
// by: its DERIVE (or INSERT).
func causeFingerprint(tr *provenance.Tree) uint64 {
	if len(tr.Children) == 0 {
		return 0
	}
	return tr.Children[0].Fingerprint()
}

// leafInserts lists the tree's seed, then its other INSERT leaves in
// preorder, each event once, at most faithfulLeaves of them.
func leafInserts(t *testing.T, tr *provenance.Tree) []*provenance.Vertex {
	t.Helper()
	seed, err := tr.FindSeed()
	if err != nil {
		t.Fatal(err)
	}
	out := []*provenance.Vertex{seed.Vertex}
	tr.Walk(func(n *provenance.Tree) {
		v := n.Vertex
		if v.Type != provenance.Insert || len(out) == faithfulLeaves {
			return
		}
		for _, o := range out {
			if o.Node == v.Node && o.At.T == v.At.T && o.Tuple.Key() == v.Tuple.Key() {
				return
			}
		}
		out = append(out, v)
	})
	return out
}

// rebuildWithout evaluates the session's log with the insert a leaf records
// left out, and returns the graph of that execution.
func rebuildWithout(t *testing.T, sess *replay.Session, leaf *provenance.Vertex) *provenance.Graph {
	t.Helper()
	rebuilt := replay.NewSession(sess.Program())
	dropped := false
	sess.Log().Each(func(ev replay.Event) {
		var err error
		switch {
		case !dropped && ev.Kind == replay.EvInsert && ev.Node == leaf.Node && ev.Tick == leaf.At.T && ev.Tuple.Key() == leaf.Tuple.Key():
			dropped = true
		case ev.Kind == replay.EvInsert:
			err = rebuilt.Insert(ev.Node, ev.Tuple, ev.Tick)
		default:
			err = rebuilt.Delete(ev.Node, ev.Tuple, ev.Tick)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if !dropped {
		t.Fatalf("the log has no insert of %s on %s at t=%d", leaf.Tuple, leaf.Node, leaf.At.T)
	}
	if err := rebuilt.Run(); err != nil {
		t.Fatal(err)
	}
	_, g, err := rebuilt.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goodSession returns the session whose graph holds the scenario's good
// tree. The SDN scenarios take both trees from the one network they run.
// MR1-D and MR2-D take it from a good job they do not keep: it is rebuilt
// here as they build it — two mappers, four reducers, the good mapper,
// job "goodjob" — over the input the bad job's log carries, and must
// yield the scenario's good tree.
func goodSession(t *testing.T, s *scenarios.Scenario) *replay.Session {
	t.Helper()
	root := s.Good.Vertex
	if _, g, err := s.BadSession.Graph(); err != nil {
		t.Fatal(err)
	} else if v := g.Vertex(root.ID); v != nil && v.Fingerprint() == root.Fingerprint() {
		return s.BadSession
	}
	f := &mapreduce.InputFile{Name: "wikipedia-sample.txt"}
	s.BadSession.Log().Each(func(ev replay.Event) {
		if ev.Tuple.Table != "inputRecord" {
			return
		}
		line, pos := int(ev.Tuple.Args[2].(ndlog.Int)), int(ev.Tuple.Args[3].(ndlog.Int))
		for len(f.Lines) <= line {
			f.Lines = append(f.Lines, nil)
		}
		for len(f.Lines[line]) <= pos {
			f.Lines[line] = append(f.Lines[line], "")
		}
		f.Lines[line][pos] = string(ev.Tuple.Args[4].(ndlog.Str))
	})
	good, err := mapreduce.NewCluster(2, 4, mapreduce.GoodMapper)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.RunJob("goodjob", f); err != nil {
		t.Fatal(err)
	}
	_, g, err := good.Session().Graph()
	if err != nil {
		t.Fatal(err)
	}
	if ap := g.LastAppear(root.Node, root.Tuple); ap == nil || g.Tree(ap.ID).Fingerprint() != s.Good.Fingerprint() {
		t.Fatalf("the rebuilt good job does not derive the good tree of %s", s.Name)
	}
	return good.Session()
}
