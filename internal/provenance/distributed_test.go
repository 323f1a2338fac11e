package provenance

import (
	"testing"

	"repro/internal/ndlog"
)

// runFwdSharded runs the forwarding scenario with both a monolithic and a
// sharded recorder attached (via a tee), so the materialized trees can be
// compared vertex for vertex.
type teeObserver struct{ a, b ndlog.Observer }

func (t teeObserver) OnBaseInsert(at ndlog.KeyedAt) { t.a.OnBaseInsert(at); t.b.OnBaseInsert(at) }
func (t teeObserver) OnBaseDelete(at ndlog.KeyedAt) { t.a.OnBaseDelete(at); t.b.OnBaseDelete(at) }
func (t teeObserver) OnAppear(at ndlog.KeyedAt, id int64) {
	t.a.OnAppear(at, id)
	t.b.OnAppear(at, id)
}
func (t teeObserver) OnDisappear(at ndlog.KeyedAt, id int64) {
	t.a.OnDisappear(at, id)
	t.b.OnDisappear(at, id)
}
func (t teeObserver) OnDerive(d ndlog.Derivation)     { t.a.OnDerive(d); t.b.OnDerive(d) }
func (t teeObserver) OnUnderive(u ndlog.Underivation) { t.a.OnUnderive(u); t.b.OnUnderive(u) }

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
	mono := NewRecorder(prog)
	sharded := NewShardedRecorder(prog)
	e := ndlog.New(prog, teeObserver{a: mono, b: sharded})
	mp := ndlog.MustParsePrefix
	e.ScheduleInsert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("s2")), 0)
	e.ScheduleInsert("s2", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("h1")), 0)
	pktIP := ndlog.MustParseIP("10.1.2.3")
	e.ScheduleInsert("s1", ndlog.NewTuple("packet", pktIP), 5)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	pkt := ndlog.NewTuple("packet", pktIP)
	monoTree := mono.Graph().Tree(mono.Graph().LastAppear("h1", pkt).ID)
	id, ok := sharded.LastAppear("h1", pkt)
	if !ok {
		t.Fatal("sharded recorder lost the arrival")
	}
	distTree, err := sharded.Materialize("h1", id)
	if err != nil {
		t.Fatal(err)
	}
	if monoTree.Size() != distTree.Size() {
		t.Fatalf("tree sizes differ: monolithic %d, sharded %d\n%s\nvs\n%s",
			monoTree.Size(), distTree.Size(), monoTree, distTree)
	}
	// Structural comparison: same labels in the same positions.
	var compare func(a, b *Tree) bool
	compare = func(a, b *Tree) bool {
		if a.Vertex.Label() != b.Vertex.Label() || len(a.Children) != len(b.Children) {
			return false
		}
		for i := range a.Children {
			if !compare(a.Children[i], b.Children[i]) {
				return false
			}
		}
		return true
	}
	if !compare(monoTree, distTree) {
		t.Fatalf("trees differ structurally:\n%s\nvs\n%s", monoTree, distTree)
	}
	// The sharded materialization paid cross-node fetches: the packet
	// crossed s1 -> s2 -> h1, so at least two remote resolutions.
	if sharded.Fetches < 2 {
		t.Errorf("fetches = %d, want >= 2 (cross-node subtrees)", sharded.Fetches)
	}
	// Shards hold only local history.
	if sharded.ShardSize("h1") >= mono.Graph().NumVertexes() {
		t.Error("a shard must be smaller than the whole graph")
	}
	total := 0
	for _, n := range sharded.Nodes() {
		total += sharded.ShardSize(n)
	}
	if total != mono.Graph().NumVertexes() {
		t.Errorf("shard sizes sum to %d, want %d (no vertex lost or duplicated)",
			total, mono.Graph().NumVertexes())
	}
	// The seed is findable on the materialized tree too.
	seed, err := distTree.FindSeed()
	if err != nil {
		t.Fatal(err)
	}
	if seed.Vertex.Type != Insert || seed.Vertex.Node != "s1" {
		t.Errorf("seed = %s on %s", seed.Vertex.Type, seed.Vertex.Node)
	}
}

func TestShardedMaterializeErrors(t *testing.T) {
	r := NewShardedRecorder(ndlog.MustParse("table a/1 base;"))
	if _, err := r.Materialize("nope", 0); err == nil {
		t.Error("unknown shard must error")
	}
	if _, ok := r.LastAppear("nope", ndlog.NewTuple("a", ndlog.Int(1))); ok {
		t.Error("unknown shard must miss")
	}
}
