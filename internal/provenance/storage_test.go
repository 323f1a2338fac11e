package provenance_test

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// The durable form of provenance is the base-event log alone: a session
// reopened from storage rebuilds by replay the graph whose per-node shards
// (§4.8) and trees the never-closed session holds.

const shardProgram = `
table flowEntry/3 base mutable;
table packet/1 event base;

rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst),
    flowEntry(@Sw, Prio, M, Nxt),
    matches(Dst, M),
    argmax Prio.
`

// driveShardScenario drives the forwarding scenario into a session,
// including a flow-entry swap so spans close and DELETE, UNDERIVE and
// DISAPPEAR vertexes exist.
func driveShardScenario(t *testing.T, s *replay.Session) {
	t.Helper()
	mp := ndlog.MustParsePrefix
	entry := func(prio int64, next string) ndlog.Tuple {
		return ndlog.NewTuple("flowEntry", ndlog.Int(prio), mp("0.0.0.0/0"), ndlog.Str(next))
	}
	for _, err := range []error{
		s.Insert("s1", entry(1, "s2"), 0),
		s.Insert("s2", entry(1, "h1"), 0),
		s.Insert("s1", packet("10.1.2.3"), 5),
		s.Delete("s2", entry(1, "h1"), 10),
		s.Insert("s2", entry(2, "h2"), 10),
		s.Insert("s1", packet("10.9.9.9"), 15),
		s.Run(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func packet(ip string) ndlog.Tuple { return ndlog.NewTuple("packet", ndlog.MustParseIP(ip)) }

func graphOf(t *testing.T, s *replay.Session) *provenance.Graph {
	t.Helper()
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// compareShards asserts that every node's shard has the same size in both
// graphs, and that every tuple that appeared has the same LastAppear and
// the same tree there: fingerprint and fetches.
func compareShards(t *testing.T, want, got *provenance.Graph) {
	t.Helper()
	if want.NumVertexes() != got.NumVertexes() {
		t.Fatalf("%d vertexes vs %d", want.NumVertexes(), got.NumVertexes())
	}
	want.Vertexes(func(v *provenance.Vertex) {
		if w, g := want.ShardSize(v.Node), got.ShardSize(v.Node); w != g {
			t.Fatalf("%s: shard of %d vertexes vs %d", v.Node, w, g)
		}
		if v.Type != provenance.Appear {
			return
		}
		w, g := want.LastAppear(v.Node, v.Tuple), got.LastAppear(v.Node, v.Tuple)
		if g == nil || g.ID != w.ID {
			t.Fatalf("%s on %s: LastAppear = %v, want vertex %d", v.Tuple, v.Node, g, w.ID)
		}
		wt, gt := want.Tree(w.ID), got.Tree(g.ID)
		if wt.Fingerprint() != gt.Fingerprint() || wt.Fetches() != gt.Fetches() {
			t.Fatalf("%s on %s: tree hashes %x with %d fetches, want %x with %d",
				v.Tuple, v.Node, gt.Fingerprint(), gt.Fetches(), wt.Fingerprint(), wt.Fetches())
		}
	})
}

// TestShardStorageRoundTrip: a storage-backed session reopened from its
// event log holds, node for node, the shards and trees of a session that
// was never closed.
func TestShardStorageRoundTrip(t *testing.T) {
	prog := ndlog.MustParse(shardProgram)
	dir := t.TempDir()
	mem := replay.NewSession(prog)
	driveShardScenario(t, mem)
	stored := replay.NewSession(prog, replay.WithStorage(dir))
	driveShardScenario(t, stored)
	if err := stored.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	cold, err := replay.Open(prog, dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer cold.CloseStorage()
	want, got := graphOf(t, mem), graphOf(t, cold)
	compareShards(t, want, got)
	// The first packet reached h1 through two remote subtrees; the
	// re-routed one reached h2.
	if a := got.LastAppear("h1", packet("10.1.2.3")); a == nil || got.Tree(a.ID).Fetches() < 2 {
		t.Fatal("reopened session lost the arrival or its cross-node edges")
	}
	if got.LastAppear("h2", packet("10.9.9.9")) == nil {
		t.Fatal("reopened session lost the re-routed arrival")
	}
}

// TestShardStorageResume: a reopened session keeps persisting. One more
// event appends after the recovered ones and survives a second reopen.
func TestShardStorageResume(t *testing.T) {
	prog := ndlog.MustParse(shardProgram)
	dir := t.TempDir()
	mem := replay.NewSession(prog)
	driveShardScenario(t, mem)
	stored := replay.NewSession(prog, replay.WithStorage(dir))
	driveShardScenario(t, stored)
	if err := stored.CloseStorage(); err != nil {
		t.Fatal(err)
	}

	resumed, err := replay.Open(prog, dir)
	if err != nil {
		t.Fatal(err)
	}
	before := graphOf(t, resumed).ShardSize("s1")
	for _, s := range []*replay.Session{mem, resumed} {
		if err := s.Insert("s1", packet("10.7.7.7"), 20); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if graphOf(t, resumed).ShardSize("s1") <= before {
		t.Fatal("resume did not grow the shard")
	}
	compareShards(t, graphOf(t, mem), graphOf(t, resumed))
	if err := resumed.CloseStorage(); err != nil {
		t.Fatal(err)
	}

	again, err := replay.Open(prog, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.CloseStorage()
	compareShards(t, graphOf(t, mem), graphOf(t, again))
}
