package replay

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/store"
)

// driveForwarding drives the same deterministic forwarding workload into
// any session: one flow entry, then n packets at ticks 1..n, with the
// flow entry swapped halfway.
func driveForwarding(t *testing.T, s *Session, n int64) {
	t.Helper()
	insert := func(node string, tu ndlog.Tuple, tick int64) {
		t.Helper()
		if err := s.Insert(node, tu, tick); err != nil {
			t.Fatalf("Insert at %d: %v", tick, err)
		}
	}
	insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1),
		ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s2")), 0)
	for i := int64(1); i <= n; i++ {
		insert("s1", ndlog.NewTuple("packet", ndlog.IP(uint32(i))), i)
		if i == n/2 {
			if err := s.Delete("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1),
				ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s2")), i); err != nil {
				t.Fatalf("Delete at %d: %v", i, err)
			}
			insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(2),
				ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s3")), i)
		}
		// Periodic Run calls, like a live driver.
		if i%7 == 0 {
			if err := s.Run(); err != nil {
				t.Fatalf("Run at %d: %v", i, err)
			}
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("final Run: %v", err)
	}
}

// treeFingerprint replays the session and fingerprints the provenance
// tree of the last packet appearance — a full query-path probe.
func treeFingerprint(t *testing.T, s *Session, n int64) uint64 {
	t.Helper()
	_, g, err := s.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	v := g.LastAppear("s3", ndlog.NewTuple("packet", ndlog.IP(uint32(n))))
	if v == nil {
		t.Fatalf("no appearance for the last forwarded packet")
	}
	return g.Tree(v.ID).Fingerprint()
}

// TestStorageDifferential: a storage-backed session must be
// indistinguishable from the in-memory path — same log, same
// checkpoints, same provenance — and remain so after a cold start from
// its segments.
func TestStorageDifferential(t *testing.T) {
	// Both configurations: storage must be invisible to replay results on
	// the production engines and on the oracle's.
	for name, config := range map[string][]SessionOption{"production": nil, "oracle": {Oracle()}} {
		t.Run(name, func(t *testing.T) {
			const n = 40
			opts := append([]SessionOption{WithCheckpointEvery(10)}, config...)
			mem := NewSession(fwdProg, opts...)
			driveForwarding(t, mem, n)

			dir := t.TempDir()
			st := NewSession(fwdProg, append(opts, WithStorage(dir, store.WithSegmentEvents(8)))...)
			driveForwarding(t, st, n)

			if !reflect.DeepEqual(mem.Log().Events(), st.Log().Events()) {
				t.Fatalf("storage-backed log differs from in-memory log")
			}
			if !reflect.DeepEqual(mem.Checkpoints(), st.Checkpoints()) {
				t.Fatalf("storage-backed checkpoints differ from in-memory checkpoints")
			}
			wantFP := treeFingerprint(t, mem, n)
			if fp := treeFingerprint(t, st, n); fp != wantFP {
				t.Fatalf("storage-backed provenance fingerprint %x != in-memory %x", fp, wantFP)
			}
			if err := st.CloseStorage(); err != nil {
				t.Fatalf("CloseStorage: %v", err)
			}

			// Cold start out of the segments: same session again.
			cold, err := Open(fwdProg, dir, opts...)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer cold.CloseStorage()
			if !reflect.DeepEqual(mem.Log().Events(), cold.Log().Events()) {
				t.Fatalf("cold-start log differs")
			}
			if !reflect.DeepEqual(mem.Checkpoints(), cold.Checkpoints()) {
				t.Fatalf("cold-start checkpoints differ")
			}
			if fp := treeFingerprint(t, cold, n); fp != wantFP {
				t.Fatalf("cold-start provenance fingerprint differs")
			}
		})
	}
}

// TestStorageRedriveRecovery: restarting a storage-backed session and
// re-driving the same execution must verify against the stored prefix
// (appending nothing), then keep persisting past it.
func TestStorageRedriveRecovery(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	first := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	driveForwarding(t, first, n)
	storedLen := first.Storage().Len()
	if err := first.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	// "Restart": fresh session over the same dir, deterministic driver
	// re-drives the identical execution.
	second := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	driveForwarding(t, second, n)
	if got := second.Storage().Len(); got != storedLen {
		t.Fatalf("re-drive appended: store holds %d events, want %d", got, storedLen)
	}

	mem := NewSession(fwdProg, WithCheckpointEvery(10))
	driveForwarding(t, mem, n)
	if !reflect.DeepEqual(mem.Checkpoints(), second.Checkpoints()) {
		t.Fatalf("recovered checkpoints differ from in-memory reference")
	}
	if treeFingerprint(t, mem, n) != treeFingerprint(t, second, n) {
		t.Fatalf("recovered provenance differs from in-memory reference")
	}

	// New events past the recovered execution persist.
	if err := second.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(0xffff0001)), n+5); err != nil {
		t.Fatalf("Insert past recovery: %v", err)
	}
	if err := second.Run(); err != nil {
		t.Fatalf("Run past recovery: %v", err)
	}
	if got := second.Storage().Len(); got != storedLen+1 {
		t.Fatalf("post-recovery append not persisted: %d events, want %d", got, storedLen+1)
	}
	second.CloseStorage()
}

// TestStorageRedriveDivergence: a driver that does not reproduce the
// stored execution must fail loudly, not fork history.
func TestStorageRedriveDivergence(t *testing.T) {
	dir := t.TempDir()
	first := NewSession(fwdProg, WithStorage(dir))
	if err := first.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(1)), 1); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := first.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := first.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	second := NewSession(fwdProg, WithStorage(dir))
	err := second.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(2)), 1) // different tuple
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergent re-drive not rejected: %v", err)
	}
	second.CloseStorage()
}

// TestStorageKillAndRestart: a crash that loses the unflushed tail (and
// leaves a torn record) recovers to the durable prefix; re-driving the
// full execution then re-appends the lost events and converges to the
// in-memory reference.
func TestStorageKillAndRestart(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	first := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	driveForwarding(t, first, n)
	// Crash: no Close, no final Sync — anything the store buffered is
	// lost. Then tear the active segment's tail with a partial record.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{0x0c, 0x01, 0x02}); err != nil {
		t.Fatalf("write torn record: %v", err)
	}
	f.Close()

	second := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	recovered := second.Log().Len()
	if recovered == 0 || recovered > second.Storage().Len()+1 {
		t.Fatalf("recovered %d events from torn store", recovered)
	}
	driveForwarding(t, second, n)

	mem := NewSession(fwdProg, WithCheckpointEvery(10))
	driveForwarding(t, mem, n)
	if !reflect.DeepEqual(mem.Log().Events(), second.Log().Events()) {
		t.Fatalf("post-crash re-drive log differs from reference")
	}
	if !reflect.DeepEqual(mem.Checkpoints(), second.Checkpoints()) {
		t.Fatalf("post-crash re-drive checkpoints differ from reference")
	}
	if treeFingerprint(t, mem, n) != treeFingerprint(t, second, n) {
		t.Fatalf("post-crash provenance differs from reference")
	}
	if err := second.SyncStorage(); err != nil {
		t.Fatalf("SyncStorage: %v", err)
	}
	if got, want := second.Storage().Len(), second.Log().Len(); got != want {
		t.Fatalf("store holds %d events after recovery, log has %d", got, want)
	}
	second.CloseStorage()
}

// TestStorageGCColdStartMatchesAgeOut: the paper's age-out is Log.AgeOut
// over the in-memory log. A session rebuilt from an aged-out log and
// backed by storage must cold-start from its directory into the same
// events and checkpoints as an in-memory session rebuilt from the same
// aged log.
func TestStorageGCColdStartMatchesAgeOut(t *testing.T) {
	const n = 40
	live := NewSession(fwdProg, WithCheckpointEvery(10))
	driveForwarding(t, live, n)
	aged := live.Log().AgeOut(20)
	if aged.Len() == 0 || aged.Len() == live.Log().Len() {
		t.Fatalf("AgeOut(20) kept %d of %d events", aged.Len(), live.Log().Len())
	}

	dir := t.TempDir()
	st, err := FromLog(fwdProg, aged, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	if err != nil {
		t.Fatalf("FromLog with storage: %v", err)
	}
	if err := st.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}
	cold, err := Open(fwdProg, dir, WithCheckpointEvery(10))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer cold.CloseStorage()

	mem, err := FromLog(fwdProg, aged, WithCheckpointEvery(10))
	if err != nil {
		t.Fatalf("FromLog: %v", err)
	}
	if !reflect.DeepEqual(cold.Log().Events(), aged.Events()) {
		t.Fatalf("cold start: got %d events, want the %d-event aged log", cold.Log().Len(), aged.Len())
	}
	if len(mem.Checkpoints()) == 0 {
		t.Fatal("aged session captured no checkpoints")
	}
	if !reflect.DeepEqual(mem.Checkpoints(), cold.Checkpoints()) {
		t.Fatalf("cold start: checkpoints differ from the in-memory session over the aged log")
	}
}

// TestOpenEmptyDir: cold-starting an empty directory yields an empty,
// usable, persisting session.
func TestOpenEmptyDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(fwdProg, dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Log().Len() != 0 {
		t.Fatalf("fresh dir yielded %d events", s.Log().Len())
	}
	if err := s.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(7)), 1); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}
	re, err := Open(fwdProg, dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.CloseStorage()
	if re.Log().Len() != 1 {
		t.Fatalf("persisted %d events, want 1", re.Log().Len())
	}
}

// TestColdStartReplay1M is the acceptance-scale test: a million-event
// synthetic log must persist into segments and replay from a cold start
// out of them. Skipped in -short mode and under the race detector; the
// CI "cold-start replay" step runs it plainly.
func TestColdStartReplay1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event cold start skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("1M-event cold start skipped under the race detector")
	}
	const n = 1_000_000
	dir := t.TempDir()
	s := NewSession(fwdProg, WithCheckpointEvery(100_000), WithStorage(dir))
	if err := s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1),
		ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s2")), 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	for i := int64(1); i <= n; i++ {
		if err := s.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(uint32(i))), i); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantCkpts := s.Checkpoints()
	if len(wantCkpts) == 0 {
		t.Fatalf("no checkpoints captured")
	}
	if err := s.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	cold, err := Open(fwdProg, dir, WithCheckpointEvery(100_000))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer cold.CloseStorage()
	if cold.Log().Len() != n+1 {
		t.Fatalf("cold start recovered %d events, want %d", cold.Log().Len(), n+1)
	}
	got := cold.Checkpoints()
	if len(got) != len(wantCkpts) {
		t.Fatalf("cold start has %d checkpoints, want %d", len(got), len(wantCkpts))
	}
	for i := range got {
		if got[i].Tick != wantCkpts[i].Tick {
			t.Fatalf("checkpoint %d at tick %d, want %d", i, got[i].Tick, wantCkpts[i].Tick)
		}
	}
	// Spot-check recovered live state: the last packet was forwarded.
	if !cold.Live().Exists("s2", ndlog.NewTuple("packet", ndlog.IP(uint32(n))), cold.Live().Now()) {
		t.Fatalf("recovered live state is missing the last forwarded packet")
	}
}

// TestOpenVerifiesReusedCheckpoint: Open reuses durable checkpoints
// instead of recapturing them, so it must compare the newest one with the
// state its re-drive reaches at the same tick. Opening the store with a
// program whose derived state differs fails loudly, naming the tick;
// opening it with the program that wrote it yields a session whose first
// trial evaluates the base run (a miss), whose later trials fork it, and
// whose results are byte-identical to the never-closed session's.
func TestOpenVerifiesReusedCheckpoint(t *testing.T) {
	const rules = `
table flowEntry/3 base mutable;
table packet/1 event base;
table seen/1;
rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt), matches(Dst, M), argmax Prio.
`
	prog := ndlog.MustParse(rules + `rule note seen(@Sw, Dst) :- packet(@Sw, Dst).`)
	// One rule changed: a switch now notes only packets it can forward, so
	// the hosts' seen tuples the checkpoints recorded are never derived.
	changed := ndlog.MustParse(rules + `rule note seen(@Sw, Dst) :- packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt).`)

	const n = 40
	dir := t.TempDir()
	live := NewSession(prog, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	driveForwarding(t, live, n)
	cks := live.Checkpoints()
	if len(cks) == 0 {
		t.Fatal("no checkpoints to reuse")
	}
	if err := live.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	wantTick := fmt.Sprintf("t=%d", cks[len(cks)-1].Tick)
	for name, opts := range map[string][]SessionOption{
		"same interval": {WithCheckpointEvery(10)},
		"no interval":   nil, // Run must still step up to the checkpoint to verify it
	} {
		_, err := Open(changed, dir, opts...)
		if err == nil || !strings.Contains(err.Error(), wantTick) || !strings.Contains(err.Error(), "checkpoint") {
			t.Errorf("Open with a changed program (%s): err = %v, want a checkpoint disagreement at %s", name, err, wantTick)
		}
	}

	cold, err := Open(prog, dir, WithCheckpointEvery(10))
	if err != nil {
		t.Fatalf("Open with the unchanged program: %v", err)
	}
	defer cold.CloseStorage()
	if !reflect.DeepEqual(cold.Checkpoints(), cks) {
		t.Error("cold-start checkpoints differ from the live session's")
	}
	change := []Change{{Insert: true, Node: "s1",
		Tuple: ndlog.NewTuple("packet", ndlog.IP(9999)), Tick: n + 1}}
	le, lg, err := live.ReplayWith(change)
	if err != nil {
		t.Fatalf("live ReplayWith: %v", err)
	}
	want := serializeForTest(lg, le.CaptureState())
	for trial, wantStats := range []ReplayStats{{PrefixMisses: 1}, {PrefixMisses: 1, PrefixHits: 1}} {
		ce, cg, err := cold.ReplayWith(change)
		if err != nil {
			t.Fatalf("cold ReplayWith: %v", err)
		}
		if st := cold.Stats; st.PrefixMisses != wantStats.PrefixMisses || st.PrefixHits != wantStats.PrefixHits {
			t.Errorf("trial %d after cold start: misses/hits = %d/%d, want %d/%d",
				trial, st.PrefixMisses, st.PrefixHits, wantStats.PrefixMisses, wantStats.PrefixHits)
		}
		if got := serializeForTest(cg, ce.CaptureState()); got != want {
			t.Errorf("trial %d after cold start differs from the never-closed session:\ncold:\n%.2000s\nlive:\n%.2000s", trial, got, want)
		}
	}
}

// serializeForTest renders a graph and snapshot deterministically for
// byte-identity comparisons inside the package.
func serializeForTest(g *provenance.Graph, snap ndlog.Snapshot) string {
	var sb strings.Builder
	g.Vertexes(func(v *provenance.Vertex) {
		fmt.Fprintf(&sb, "%d %s trig=%d kids=%v\n", v.ID, v.String(), v.Trigger, v.Children)
	})
	nodes := make([]string, 0, len(snap.State))
	for n := range snap.State {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	fmt.Fprintf(&sb, "tick=%d\n", snap.Tick)
	for _, n := range nodes {
		tables := make([]string, 0, len(snap.State[n]))
		for tn := range snap.State[n] {
			tables = append(tables, tn)
		}
		sort.Strings(tables)
		for _, tn := range tables {
			for _, tp := range snap.State[n][tn] {
				fmt.Fprintf(&sb, "%s %s\n", n, tp)
			}
		}
	}
	return sb.String()
}
