package provenance

import (
	"testing"

	"repro/internal/ndlog"
)

// Distributed operation (§4.8) is a query over the one graph: a node's
// shard is the vertexes whose Node it is, and materializing a tree on a
// node that keeps only its shard fetches every cross-node subtree.
func TestShardedMaterializationMatchesMonolithic(t *testing.T) {
	prog := ndlog.MustParse(`
table flowEntry/3 base mutable;
table packet/1 event base;

rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst),
    flowEntry(@Sw, Prio, M, Nxt),
    matches(Dst, M),
    argmax Prio.
`)
	rec := NewRecorder(prog)
	e := ndlog.New(prog, rec)
	mp := ndlog.MustParsePrefix
	e.ScheduleInsert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("s2")), 0)
	e.ScheduleInsert("s2", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("h1")), 0)
	pktIP := ndlog.MustParseIP("10.1.2.3")
	e.ScheduleInsert("s1", ndlog.NewTuple("packet", pktIP), 5)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	g := rec.Graph()

	arrival := g.LastAppear("h1", ndlog.NewTuple("packet", pktIP))
	if arrival == nil {
		t.Fatal("graph lost the arrival")
	}
	tree := g.Tree(arrival.ID)
	// The packet crossed s1 -> s2 -> h1: the DERIVE on s2 below h1's
	// APPEAR and the DERIVE on s1 below s2's are remote subtrees.
	if f := tree.Fetches(); f < 2 {
		t.Errorf("fetches = %d, want >= 2 (cross-node subtrees)\n%s", f, tree)
	}
	// Shards hold only local history, and partition the graph.
	if g.ShardSize("h1") >= g.NumVertexes() {
		t.Error("a shard must be smaller than the whole graph")
	}
	nodes := map[string]bool{}
	g.Vertexes(func(v *Vertex) { nodes[v.Node] = true })
	total := 0
	for n := range nodes {
		total += g.ShardSize(n)
	}
	if total != g.NumVertexes() {
		t.Errorf("shard sizes sum to %d, want %d (no vertex lost or duplicated)", total, g.NumVertexes())
	}
	// The seed is findable on the tree a shard-local node materializes.
	seed, err := tree.FindSeed()
	if err != nil {
		t.Fatal(err)
	}
	if seed.Vertex.Type != Insert || seed.Vertex.Node != "s1" {
		t.Errorf("seed = %s on %s", seed.Vertex.Type, seed.Vertex.Node)
	}
}

func TestShardedMaterializeErrors(t *testing.T) {
	g := NewRecorder(ndlog.MustParse("table a/1 base;")).Graph()
	if n := g.ShardSize("nope"); n != 0 {
		t.Errorf("unknown node's shard holds %d vertexes, want 0", n)
	}
	if v := g.LastAppear("nope", ndlog.NewTuple("a", ndlog.Int(1))); v != nil {
		t.Errorf("unknown node must miss, got %s", v)
	}
}
