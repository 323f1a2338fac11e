package provenance

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ndlog"
)

// driveShardScenario runs the forwarding scenario — including a
// flow-entry swap so spans close and DELETE/UNDERIVE/DISAPPEAR vertexes
// exist — into the given sharded recorder.
func driveShardScenario(t *testing.T, r *ShardedRecorder) *ndlog.Engine {
	t.Helper()
	e := ndlog.New(r.prog, r)
	mp := ndlog.MustParsePrefix
	e.ScheduleInsert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("s2")), 0)
	e.ScheduleInsert("s2", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("h1")), 0)
	e.ScheduleInsert("s1", ndlog.NewTuple("packet", ndlog.MustParseIP("10.1.2.3")), 5)
	e.ScheduleDelete("s2", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("h1")), 10)
	e.ScheduleInsert("s2", ndlog.NewTuple("flowEntry", ndlog.Int(2), mp("0.0.0.0/0"), ndlog.Str("h2")), 10)
	e.ScheduleInsert("s1", ndlog.NewTuple("packet", ndlog.MustParseIP("10.9.9.9")), 15)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func shardProg(t *testing.T) *ndlog.Program {
	t.Helper()
	return ndlog.MustParse(`
table flowEntry/3 base mutable;
table packet/1 event base;

rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst),
    flowEntry(@Sw, Prio, M, Nxt),
    matches(Dst, M),
    argmax Prio.
`)
}

// compareShards asserts two recorders hold identical shards: same nodes
// in the same order, same vertexes, remote refs, agg links, and indexes
// that matter for queries.
func compareShards(t *testing.T, want, got *ShardedRecorder) {
	t.Helper()
	wn, gn := want.Nodes(), got.Nodes()
	if len(wn) != len(gn) {
		t.Fatalf("node sets differ: %v vs %v", wn, gn)
	}
	for i := range wn {
		if wn[i] != gn[i] {
			t.Fatalf("node order differs: %v vs %v", wn, gn)
		}
	}
	for _, node := range wn {
		ws, gs := want.shards[node], got.shards[node]
		if len(ws.vertexes) != len(gs.vertexes) {
			t.Fatalf("%s: %d vertexes vs %d", node, len(ws.vertexes), len(gs.vertexes))
		}
		for i := range ws.vertexes {
			wv, gv := ws.vertexes[i], gs.vertexes[i]
			if wv.Type != gv.Type || wv.Node != gv.Node || !wv.Tuple.Equal(gv.Tuple) ||
				wv.Rule != gv.Rule || wv.At != gv.At || wv.Span != gv.Span ||
				wv.Trigger != gv.Trigger || len(wv.Children) != len(gv.Children) {
				t.Fatalf("%s vertex %d differs:\n%+v\nvs\n%+v", node, i, wv, gv)
			}
			for j := range wv.Children {
				if wv.Children[j] != gv.Children[j] {
					t.Fatalf("%s vertex %d child %d differs", node, i, j)
				}
			}
		}
		if len(ws.remote) != len(gs.remote) {
			t.Fatalf("%s: remote-ref maps differ in size", node)
		}
		for id, refs := range ws.remote {
			grefs, ok := gs.remote[id]
			if !ok || len(refs) != len(grefs) {
				t.Fatalf("%s: remote refs for vertex %d differ", node, id)
			}
			for slot, ref := range refs {
				if grefs[slot] != ref {
					t.Fatalf("%s: remote ref %d/%d differs: %+v vs %+v", node, id, slot, ref, grefs[slot])
				}
			}
		}
		if len(ws.aggDelta) != len(gs.aggDelta) {
			t.Fatalf("%s: agg-delta maps differ in size", node)
		}
		for id, link := range ws.aggDelta {
			if gs.aggDelta[id] != link {
				t.Fatalf("%s: agg link for vertex %d differs", node, id)
			}
		}
		if len(ws.openExist) != len(gs.openExist) {
			t.Fatalf("%s: open-exist maps differ: %v vs %v", node, ws.openExist, gs.openExist)
		}
	}
}

// TestShardStorageRoundTrip: a storage-backed sharded recorder must be
// recoverable from its record logs, shard for shard and vertex for
// vertex, and the recovered recorder must materialize identical trees.
func TestShardStorageRoundTrip(t *testing.T) {
	prog := shardProg(t)
	dir := t.TempDir()
	live := NewShardedRecorder(prog, WithShardStorage(dir))
	driveShardScenario(t, live)
	if err := live.StorageErr(); err != nil {
		t.Fatalf("persistence error: %v", err)
	}
	if err := live.CloseShardStorage(); err != nil {
		t.Fatalf("CloseShardStorage: %v", err)
	}

	cold, err := OpenStoredShards(prog, dir)
	if err != nil {
		t.Fatalf("OpenStoredShards: %v", err)
	}
	defer cold.CloseShardStorage()
	compareShards(t, live, cold)

	// Materialization over the recovered shards matches the live one,
	// including cross-shard fetches.
	pkt := ndlog.NewTuple("packet", ndlog.MustParseIP("10.1.2.3"))
	wantID, ok := live.LastAppear("h1", pkt)
	if !ok {
		t.Fatal("live recorder lost the arrival")
	}
	gotID, ok := cold.LastAppear("h1", pkt)
	if !ok {
		t.Fatal("recovered recorder lost the arrival")
	}
	if wantID != gotID {
		t.Fatalf("LastAppear differs: %d vs %d", wantID, gotID)
	}
	wantTree, err := live.Materialize("h1", wantID)
	if err != nil {
		t.Fatal(err)
	}
	gotTree, err := cold.Materialize("h1", gotID)
	if err != nil {
		t.Fatal(err)
	}
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
	if !compare(wantTree, gotTree) {
		t.Fatalf("materialized trees differ:\n%s\nvs\n%s", wantTree, gotTree)
	}
	if live.Fetches != cold.Fetches {
		t.Fatalf("fetch counts differ: %d vs %d", live.Fetches, cold.Fetches)
	}
	// Re-routed packet reached h2 — the swap's spans and second route
	// survived too.
	if _, ok := cold.LastAppear("h2", ndlog.NewTuple("packet", ndlog.MustParseIP("10.9.9.9"))); !ok {
		t.Fatal("recovered recorder lost the re-routed arrival")
	}
}

// TestShardStorageResume: a recovered recorder keeps persisting — new
// observations append after the recovered vertexes and survive another
// round trip.
func TestShardStorageResume(t *testing.T) {
	prog := shardProg(t)
	dir := t.TempDir()
	live := NewShardedRecorder(prog, WithShardStorage(dir))
	driveShardScenario(t, live)
	if err := live.CloseShardStorage(); err != nil {
		t.Fatal(err)
	}

	resumed, err := OpenStoredShards(prog, dir)
	if err != nil {
		t.Fatal(err)
	}
	before := resumed.ShardSize("s1")
	// Drive one more event into the recovered recorder.
	e := ndlog.New(prog, resumed)
	e.ScheduleInsert("s1", ndlog.NewTuple("packet", ndlog.MustParseIP("10.7.7.7")), 20)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := resumed.StorageErr(); err != nil {
		t.Fatalf("persistence error after resume: %v", err)
	}
	if resumed.ShardSize("s1") <= before {
		t.Fatal("resume did not grow the shard")
	}
	if err := resumed.CloseShardStorage(); err != nil {
		t.Fatal(err)
	}

	again, err := OpenStoredShards(prog, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.CloseShardStorage()
	compareShards(t, resumed, again)
}

// TestShardStorageUnattached: without WithShardStorage the lifecycle
// calls are no-ops.
func TestShardStorageUnattached(t *testing.T) {
	r := NewShardedRecorder(shardProg(t))
	if err := r.StorageErr(); err != nil {
		t.Fatal(err)
	}
	if err := r.SyncShardStorage(); err != nil {
		t.Fatal(err)
	}
	if err := r.CloseShardStorage(); err != nil {
		t.Fatal(err)
	}
}

// TestShardLogFromBeforeCarriedKeysLoads: testdata/shards-c85e625 is the
// store driveShardScenario wrote at commit c85e625, when shard indexes
// were keyed by "tupleKey|seq" strings. Records hold tuples, not keys, so
// the struct-keyed indexes must rebuild from it unchanged: the recovered
// shards equal a live recording, their trees hash the same (loaded keys
// against engine-supplied ones), and today's writer still produces those
// very bytes.
func TestShardLogFromBeforeCarriedKeysLoads(t *testing.T) {
	const golden = "testdata/shards-c85e625"
	files, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	prog := shardProg(t)
	dir, fresh := t.TempDir(), t.TempDir()
	live := NewShardedRecorder(prog, WithShardStorage(fresh))
	driveShardScenario(t, live)
	if err := live.CloseShardStorage(); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		want, err := os.ReadFile(filepath.Join(golden, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(fresh, f.Name())); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: today's writer produces different bytes (err %v)", f.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cold, err := OpenStoredShards(prog, dir)
	if err != nil {
		t.Fatalf("OpenStoredShards: %v", err)
	}
	defer cold.CloseShardStorage()
	compareShards(t, live, cold)
	for _, arrival := range []struct{ node, ip string }{{"h1", "10.1.2.3"}, {"h2", "10.9.9.9"}} {
		pkt := ndlog.NewTuple("packet", ndlog.MustParseIP(arrival.ip))
		id, ok := cold.LastAppear(arrival.node, pkt)
		if want, _ := live.LastAppear(arrival.node, pkt); !ok || id != want {
			t.Fatalf("%s: LastAppear = %d, %v; live has %d", arrival.node, id, ok, want)
		}
		wantTree, err := live.Materialize(arrival.node, id)
		if err != nil {
			t.Fatal(err)
		}
		gotTree, err := cold.Materialize(arrival.node, id)
		if err != nil {
			t.Fatal(err)
		}
		if gotTree.Fingerprint() != wantTree.Fingerprint() {
			t.Errorf("%s: recovered tree hashes %x, live %x", arrival.node, gotTree.Fingerprint(), wantTree.Fingerprint())
		}
	}
}
