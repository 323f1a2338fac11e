package replay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

var fwdProg = ndlog.MustParse(`
table flowEntry/3 base mutable;
table packet/1 event base;

rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst),
    flowEntry(@Sw, Prio, M, Nxt),
    matches(Dst, M),
    argmax Prio.
`)

// HistoryOf collects a tuple's existence intervals on a node, newest
// first (Engine.History).
func HistoryOf(e *ndlog.Engine, node string, t ndlog.Tuple) (out []ndlog.Interval) {
	e.History(node, t, func(iv ndlog.Interval) bool {
		out = append(out, iv)
		return true
	})
	return out
}

func randomTuple(r *rand.Rand) ndlog.Tuple {
	switch r.Intn(3) {
	case 0:
		return ndlog.NewTuple("flowEntry", ndlog.Int(r.Int63n(100)),
			ndlog.Prefix{Addr: ndlog.IP(r.Uint32()).Mask(8), Bits: 8}, ndlog.Str("nxt"))
	case 1:
		return ndlog.NewTuple("packet", ndlog.IP(r.Uint32()))
	default:
		return ndlog.NewTuple("flowEntry", ndlog.Int(r.Int63n(5)),
			ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str(string(rune('a'+r.Intn(26)))))
	}
}

func TestLogEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	l := NewLog()
	for i := 0; i < 200; i++ {
		tu := randomTuple(r)
		if tu.Table == "packet" || r.Intn(4) != 0 {
			l.Insert("n", tu, int64(i))
		} else {
			l.Delete("n", tu, int64(i))
		}
	}
	// Add events covering every value kind.
	l.Insert("m", ndlog.NewTuple("flowEntry", ndlog.Int(-5), ndlog.MustParsePrefix("10.0.0.0/8"), ndlog.Str("x")), 500)

	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatalf("decoded %d events, want %d", back.Len(), l.Len())
	}
	backEvs := back.Events()
	for i, ev := range l.Events() {
		got := backEvs[i]
		if got.Kind != ev.Kind || got.Node != ev.Node || got.Tick != ev.Tick || !got.Tuple.Equal(ev.Tuple) {
			t.Fatalf("event %d: got %+v, want %+v", i, got, ev)
		}
	}
}

func TestLogEncodedSizeNearFixedPerPacket(t *testing.T) {
	// The log stores header + timestamp per packet: per-event size must
	// be small and near constant.
	l := NewLog()
	l.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(1)), 1)
	one := l.EncodedSize()
	for i := 2; i <= 1001; i++ {
		l.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(uint32(i))), int64(i))
	}
	total := l.EncodedSize()
	per := float64(total-one) / 1000
	if per > 32 {
		t.Errorf("per-packet log record = %.1f bytes, want compact (<32)", per)
	}
	if per <= 0 {
		t.Error("per-packet size must be positive")
	}
}

func TestDecodeCorruptLog(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{0xff, 0xff, 0xff})); err == nil {
		t.Error("decoding garbage must fail")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("decoding empty input must fail")
	}
	// Truncated valid log.
	l := NewLog()
	l.Insert("n", ndlog.NewTuple("packet", ndlog.IP(1)), 1)
	var buf bytes.Buffer
	l.Encode(&buf)
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Error("decoding truncated log must fail")
	}
}

// scenarioSink takes driveScenario's events: a session, or an engine
// through liveRecording.
type scenarioSink interface {
	Insert(node string, t ndlog.Tuple, tick int64) error
	Run() error
}

func driveScenario(t *testing.T, s scenarioSink) {
	t.Helper()
	mp := ndlog.MustParsePrefix
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(10), mp("4.3.2.0/24"), ndlog.Str("s6")), 0))
	must(s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("s3")), 0))
	must(s.Insert("s6", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("web1")), 0))
	must(s.Insert("s3", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("web2")), 0))
	must(s.Insert("s1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1")), 10))
	must(s.Insert("s1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.3.1")), 11))
	must(s.Run())
}

func TestReplayReproducesLiveExecution(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)
	e, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !e.ExistsEver("web1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1"))) {
		t.Error("replayed engine missing packet at web1")
	}
	if !e.ExistsEver("web2", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.3.1"))) {
		t.Error("replayed engine missing packet at web2")
	}
	if g.NumVertexes() == 0 {
		t.Error("replayed graph empty")
	}
}

// liveRecording drives a recorder-attached engine the way a session drives
// its live engine, so driveScenario can feed both the same events in the
// same Run batches.
type liveRecording struct{ *ndlog.Engine }

func (l liveRecording) Insert(node string, t ndlog.Tuple, tick int64) error {
	return l.ScheduleInsert(node, t, tick)
}

// TestRuntimeAndQueryTimeModesAgree: provenance recorded at runtime — a
// recorder attached to an engine while the events are driven — equals the
// graph the session reconstructs at query time from its log (§5), vertex
// by vertex: label, stamp, trigger and children.
func TestRuntimeAndQueryTimeModesAgree(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)
	rec := provenance.NewRecorder(fwdProg)
	driveScenario(t, liveRecording{ndlog.New(fwdProg, rec)})

	_, gQ, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	gR := rec.Graph()
	if gQ.NumVertexes() != gR.NumVertexes() {
		t.Fatalf("graphs differ: %d vertexes at query time, %d recorded live", gQ.NumVertexes(), gR.NumVertexes())
	}
	for i := 0; i < gQ.NumVertexes(); i++ {
		vq, vr := gQ.Vertex(i), gR.Vertex(i)
		if vq.Label() != vr.Label() || vq.At != vr.At || vq.Trigger != vr.Trigger ||
			fmt.Sprint(vq.Children()) != fmt.Sprint(vr.Children()) {
			t.Fatalf("vertex %d differs: %s trig=%d kids=%v at query time, %s trig=%d kids=%v recorded live",
				i, vq, vq.Trigger, vq.Children(), vr, vr.Trigger, vr.Children())
		}
	}
}

func TestReplayDeterminismProperty(t *testing.T) {
	// Random logs replay to identical graphs every time.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		s := NewSession(fwdProg)
		for i := 0; i < 60; i++ {
			tu := randomTuple(r)
			s.Insert("s1", tu, int64(i))
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		_, g1, err := s.Replay()
		if err != nil {
			t.Fatal(err)
		}
		_, g2, err := s.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if g1.NumVertexes() != g2.NumVertexes() {
			t.Fatalf("trial %d: replay nondeterministic (%d vs %d)", trial, g1.NumVertexes(), g2.NumVertexes())
		}
		for i := 0; i < g1.NumVertexes(); i++ {
			if g1.Vertex(i).Label() != g2.Vertex(i).Label() {
				t.Fatalf("trial %d: vertex %d differs", trial, i)
			}
		}
	}
}

func TestReplayWithCounterfactualChange(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)

	// Counterfactual: add the corrected /23 entry before the bad packet.
	fix := Change{
		Insert: true,
		Node:   "s1",
		Tuple:  ndlog.NewTuple("flowEntry", ndlog.Int(10), ndlog.MustParsePrefix("4.3.2.0/23"), ndlog.Str("s6")),
		Tick:   9,
	}
	e, _, err := s.ReplayWith([]Change{fix})
	if err != nil {
		t.Fatal(err)
	}
	if !e.ExistsEver("web1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.3.1"))) {
		t.Error("with the fix, 4.3.3.1 should reach web1")
	}
	if e.ExistsEver("web2", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.3.1"))) {
		t.Error("with the fix, 4.3.3.1 must no longer reach web2")
	}
	// The live system is untouched.
	if s.Live().ExistsEver("web1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.3.1"))) {
		t.Error("counterfactual change leaked into the live system")
	}
	if c := (Change{Insert: false, Node: "n", Tuple: ndlog.NewTuple("flowEntry", ndlog.Int(1), ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("x")), Tick: 3}); c.String() == "" {
		t.Error("Change.String empty")
	}
}

func TestReplayUntilTruncates(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)
	e, _, err := s.ReplayUntil(10)
	if err != nil {
		t.Fatal(err)
	}
	if !e.ExistsEver("web1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1"))) {
		t.Error("packet at tick 10 must be replayed")
	}
	if e.ExistsEver("web2", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.3.1"))) {
		t.Error("packet at tick 11 must be excluded")
	}
}

// TestGraphMemoization: Graph() is the session's one
// base run — evaluated by the first caller (who books the replay and the
// miss), returned sealed and by identity afterwards, forked by trials,
// and replaced once the log grows.
func TestGraphMemoization(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)
	e1, g1, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if s.ReplayCount != 1 || s.Stats.PrefixMisses != 1 {
		t.Errorf("first Graph(): %d replays, %d misses; want the base-run build booked once", s.ReplayCount, s.Stats.PrefixMisses)
	}
	if !e1.Sealed() {
		t.Error("Graph() returned an engine callers could drive")
	}
	_, g2, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if s.ReplayCount != 1 {
		t.Error("second Graph() call should return the base run, not replay")
	}
	if g1 != g2 {
		t.Error("base-run graph identity changed")
	}
	// A trial forks that same run instead of evaluating the log again.
	mustReplayWith(t, s, []Change{{Insert: true, Node: "s1", Tuple: ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.8")), Tick: 12}})
	if s.Stats.PrefixMisses != 1 || s.Stats.PrefixHits != 1 {
		t.Errorf("trial after Graph(): %+v; want a fork of the base run Graph() built", s.Stats)
	}
	// New events invalidate the base run.
	s.Insert("s1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.9")), 20)
	s.Run()
	_, g3, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g3 == g1 {
		t.Error("base run must be invalidated by new events")
	}
	if s.ReplayCount != 3 || s.Stats.PrefixMisses != 2 {
		t.Errorf("after log growth: %d replays, %d misses; want one more of each", s.ReplayCount, s.Stats.PrefixMisses)
	}
}

func TestCheckpoints(t *testing.T) {
	s := NewSession(fwdProg, WithCheckpointEvery(5))
	mp := ndlog.MustParsePrefix
	s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("h")), 0)
	s.Run()
	s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(2), mp("10.0.0.0/8"), ndlog.Str("h2")), 7)
	s.Run()
	s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(3), mp("10.0.0.0/8"), ndlog.Str("h3")), 20)
	s.Run()
	cks := s.Checkpoints()
	if len(cks) < 2 {
		t.Fatalf("checkpoints = %d, want >= 2", len(cks))
	}
	snap := cks[0]
	if snap.Tick != 7 {
		t.Fatalf("first checkpoint at tick %d, want 7 (the first event-bearing tick at least one interval in)", snap.Tick)
	}
	if !snap.Lookup("s1", ndlog.NewTuple("flowEntry", ndlog.Int(2), mp("10.0.0.0/8"), ndlog.Str("h2"))) {
		t.Error("checkpoint at tick 7 should contain the second entry")
	}
	if snap.NumTuples() == 0 {
		t.Error("snapshot should contain tuples")
	}
}

func TestSessionInsertErrors(t *testing.T) {
	s := NewSession(fwdProg)
	if err := s.Insert("n", ndlog.NewTuple("nosuch", ndlog.Int(1)), 0); err == nil {
		t.Error("bad insert must fail and not be logged")
	}
	if s.Log().Len() != 0 {
		t.Error("failed insert must not be logged")
	}
	if err := s.Delete("n", ndlog.NewTuple("nosuch", ndlog.Int(1)), 0); err == nil {
		t.Error("bad delete must fail")
	}
}

// A delete the engine would refuse when it evaluates it (an event tuple)
// or silently ignore (wrong arity) must be refused when it is scheduled:
// once such an event is in the log — and on disk — every later Run, Graph
// and replay of the session fails on it.
func TestSessionDeleteRefusedBeforeLog(t *testing.T) {
	pfx := ndlog.MustParsePrefix("10.0.0.0/8")
	fe := ndlog.NewTuple("flowEntry", ndlog.Int(1), pfx, ndlog.Str("s2"))
	bad := map[string]ndlog.Tuple{
		"event tuple": ndlog.NewTuple("packet", ndlog.MustParseIP("10.0.0.1")),
		"wrong arity": ndlog.NewTuple("flowEntry", ndlog.Int(1)),
	}
	for _, stored := range []bool{false, true} {
		for name, tup := range bad {
			t.Run(fmt.Sprintf("%s/stored=%v", name, stored), func(t *testing.T) {
				var opts []SessionOption
				if stored {
					opts = append(opts, WithStorage(t.TempDir()))
				}
				s := NewSession(fwdProg, opts...)
				defer s.CloseStorage()
				if err := s.Insert("s1", fe, 0); err != nil {
					t.Fatal(err)
				}
				if err := s.Delete("s1", tup, 1); err == nil {
					t.Error("Delete must refuse the tuple")
				}
				if got := s.Log().Len(); got != 1 {
					t.Errorf("refused delete reached the log: Len = %d, want 1", got)
				}
				if err := s.Run(); err != nil {
					t.Errorf("Run after a refused delete: %v", err)
				}
				if _, _, err := s.Graph(); err != nil {
					t.Errorf("Graph after a refused delete: %v", err)
				}
				if _, _, err := s.ReplayWith(nil); err != nil {
					t.Errorf("ReplayWith after a refused delete: %v", err)
				}
			})
		}
	}
}

func TestLogClone(t *testing.T) {
	l := NewLog()
	l.Insert("n", ndlog.NewTuple("packet", ndlog.IP(1)), 0)
	c := l.Clone()
	c.Insert("n", ndlog.NewTuple("packet", ndlog.IP(2)), 1)
	if l.Len() != 1 || c.Len() != 2 {
		t.Error("clone must not share growth")
	}
}

// TestLogCloneSharesPrefix: a clone is a capped view of the append-only
// log, not a copy. It may be read while the original goes on appending
// (run with -race), it never sees those appends, and an append through a
// clone reaches neither the original nor a sibling clone — even though all
// three started on one array with room to spare.
func TestLogCloneSharesPrefix(t *testing.T) {
	pkt := func(i int) ndlog.Tuple { return ndlog.NewTuple("packet", ndlog.IP(uint32(i))) }
	l := NewLog()
	for i := 0; i < 100; i++ {
		l.Insert("n", pkt(i), int64(i))
	}
	a, b := l.Clone(), l.Clone()
	if &a.events[0] != &l.events[0] || &b.events[0] != &l.events[0] {
		t.Fatal("a clone copied the events")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 5000; i++ {
			l.Insert("n", pkt(i), int64(i))
		}
	}()
	for round := 0; round < 50; round++ {
		n := 0
		a.Each(func(ev Event) {
			if ev.Tick != int64(n) {
				t.Errorf("clone event %d has tick %d", n, ev.Tick)
			}
			n++
		})
		if n != 100 || a.Len() != 100 {
			t.Fatalf("clone sees %d events (Len %d) while the original appends, want 100", n, a.Len())
		}
	}
	wg.Wait()

	a.Insert("clone-a", pkt(-1), 100)
	b.Insert("clone-b", pkt(-2), 100)
	if a.Len() != 101 || b.Len() != 101 || l.Len() != 5000 {
		t.Fatalf("lengths %d / %d / %d, want 101 / 101 / 5000", a.Len(), b.Len(), l.Len())
	}
	if got := a.At(100).Node; got != "clone-a" {
		t.Errorf("clone a's event 100 is on %q: a sibling's or the original's append reached it", got)
	}
	if got := b.At(100).Node; got != "clone-b" {
		t.Errorf("clone b's event 100 is on %q", got)
	}
	if got := l.At(100); got.Node != "n" || got.Tick != 100 {
		t.Errorf("the original's event 100 is %+v: a clone's append reached it", got)
	}
}

func TestReplayAccountsTime(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)
	if _, _, err := s.Replay(); err != nil {
		t.Fatal(err)
	}
	if s.ReplayCount != 1 {
		t.Errorf("ReplayCount = %d, want 1", s.ReplayCount)
	}
	if s.ReplayTime <= 0 {
		t.Error("ReplayTime should be positive")
	}
}

var _ = provenance.NewGraph // ensure import is used even if assertions change

func TestFromLogRoundTrip(t *testing.T) {
	orig := NewSession(fwdProg)
	driveScenario(t, orig)

	// Serialize the log, decode it, rebuild a session, and compare.
	var buf bytes.Buffer
	if err := orig.Log().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := FromLog(fwdProg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	_, g1, err := orig.Graph()
	if err != nil {
		t.Fatal(err)
	}
	_, g2, err := rebuilt.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumVertexes() != g2.NumVertexes() {
		t.Fatalf("graphs differ after log round trip: %d vs %d", g1.NumVertexes(), g2.NumVertexes())
	}
	for i := 0; i < g1.NumVertexes(); i++ {
		if g1.Vertex(i).Label() != g2.Vertex(i).Label() {
			t.Fatalf("vertex %d differs after round trip", i)
		}
	}
}

func TestFromLogRejectsBadEvents(t *testing.T) {
	l := NewLog()
	l.Insert("n", ndlog.NewTuple("nosuch", ndlog.Int(1)), 0)
	if _, err := FromLog(fwdProg, l); err == nil {
		t.Error("a log with undeclared tables must be rejected")
	}
}

func TestAgeOut(t *testing.T) {
	l := NewLog()
	for i := int64(0); i < 100; i++ {
		l.Insert("n", ndlog.NewTuple("packet", ndlog.IP(uint32(i))), i)
	}
	aged := l.AgeOut(60)
	if aged.Len() != 40 {
		t.Fatalf("aged log has %d events, want 40", aged.Len())
	}
	for _, ev := range aged.Events() {
		if ev.Tick < 60 {
			t.Fatal("aged log retains old events")
		}
	}
	if l.Len() != 100 {
		t.Error("AgeOut must not mutate the original")
	}
	if aged.EncodedSize() >= l.EncodedSize() {
		t.Error("aging out must reclaim storage")
	}
}

func TestCheckpointsConsistentWithHistory(t *testing.T) {
	// Property: every tuple in a checkpoint existed at the checkpoint's
	// tick according to the replayed temporal store, and vice versa.
	s := NewSession(fwdProg, WithCheckpointEvery(3))
	mp := ndlog.MustParsePrefix
	for i := int64(0); i < 30; i++ {
		fe := ndlog.NewTuple("flowEntry", ndlog.Int(i%7), mp("0.0.0.0/0"), ndlog.Str(string(rune('a'+i%3))))
		if i%4 == 3 {
			if err := s.Delete("s1", fe, i); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := s.Insert("s1", fe, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	e, _, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	cks := s.Checkpoints()
	if len(cks) < 3 {
		t.Fatalf("checkpoints = %d, want several", len(cks))
	}
	for _, ck := range cks {
		at := ndlog.Stamp{T: ck.Tick, Seq: ^uint64(0)}
		for node, tables := range ck.State {
			for _, rows := range tables {
				for _, row := range rows {
					if !e.Exists(node, row, at) {
						t.Fatalf("checkpoint@%d contains %s on %s but history disagrees", ck.Tick, row, node)
					}
				}
			}
		}
		// Reverse direction: everything live at the checkpoint tick is
		// in the snapshot.
		for _, tu := range e.TuplesAt("s1", "flowEntry", at) {
			if !ck.Lookup("s1", tu) {
				t.Fatalf("history has %s at t=%d but checkpoint misses it", tu, ck.Tick)
			}
		}
	}
}

func TestSessionAccessorsAndEngineOptions(t *testing.T) {
	// Two uses of WithEngineOptions: the later one wins on conflict.
	s := NewSession(fwdProg, WithEngineOptions(ndlog.WithDelay(7)), WithEngineOptions(ndlog.WithDelay(3)))
	if s.Program() != fwdProg {
		t.Error("Program accessor broken")
	}
	// The engine option must reach the live engine: a packet takes 3
	// ticks per hop.
	mp := ndlog.MustParsePrefix
	if err := s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("h")), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(1)), 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	arrivals := HistoryOf(s.Live(), "h", ndlog.NewTuple("packet", ndlog.IP(1)))
	if len(arrivals) != 1 || arrivals[0].From.T != 13 {
		t.Errorf("arrival = %v, want tick 13 (delay option propagated)", arrivals)
	}
	// Replays inherit the option too.
	e, _, err := s.Replay()
	if err != nil {
		t.Fatal(err)
	}
	rh := HistoryOf(e, "h", ndlog.NewTuple("packet", ndlog.IP(1)))
	if len(rh) != 1 || rh[0].From.T != 13 {
		t.Errorf("replayed arrival = %v, want tick 13", rh)
	}

	// A later use appends to the earlier options instead of replacing
	// them: the derivation limit survives the second WithEngineOptions...
	lim := NewSession(fwdProg, WithEngineOptions(ndlog.WithDerivationLimit(1)), WithEngineOptions(ndlog.WithDelay(3)))
	if err := lim.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("h")), 0); err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 3; i++ {
		if err := lim.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(i)), 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := lim.Run(); err == nil || !strings.Contains(err.Error(), "derivation limit") {
		t.Errorf("Run with WithDerivationLimit(1) then another WithEngineOptions: err = %v, want the limit to apply", err)
	}
	// ... and so does what Oracle() sets: its engines stay unindexed when
	// the caller passes engine options of its own afterwards.
	join := ndlog.MustParse(`
table edge/2 base mutable;
table probe/1 event base;
table hit/2 event;
rule j hit(S, D) :- probe(@r, S), edge(@r, S, D).
`)
	for _, oracle := range []bool{false, true} {
		opts := []SessionOption{WithEngineOptions(ndlog.WithDerivationLimit(1000))}
		if oracle {
			opts = append([]SessionOption{Oracle()}, opts...)
		}
		js := NewSession(join, opts...)
		if err := js.Insert("r", ndlog.NewTuple("edge", ndlog.Int(1), ndlog.Int(2)), 0); err != nil {
			t.Fatal(err)
		}
		if err := js.Insert("r", ndlog.NewTuple("probe", ndlog.Int(1)), 1); err != nil {
			t.Fatal(err)
		}
		if err := js.Run(); err != nil {
			t.Fatal(err)
		}
		je, _, err := js.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if probes := je.Stats().IndexProbes; (probes == 0) != oracle {
			t.Errorf("oracle=%v: replay engine made %d index probes; the oracle must make none, production some", oracle, probes)
		}
	}
}

func TestSessionClone(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)
	if _, _, err := s.Graph(); err != nil { // evaluate the base run
		t.Fatal(err)
	}
	parentReplays := s.ReplayCount

	cl := s.Clone()
	if cl.ReplayCount != 0 || cl.ReplayTime != 0 {
		t.Errorf("clone stats = (%d, %v), want zeroed", cl.ReplayCount, cl.ReplayTime)
	}
	// The base run is shared: Graph() on the clone must not trigger a
	// fresh replay.
	if _, _, err := cl.Graph(); err != nil {
		t.Fatal(err)
	}
	if cl.ReplayCount != 0 {
		t.Errorf("clone.Graph() replayed %d times, want the parent's base run", cl.ReplayCount)
	}

	// A counterfactual replay on the clone accounts only on the clone.
	ch := Change{Insert: true, Node: "s1",
		Tuple: ndlog.NewTuple("flowEntry", ndlog.Int(20), ndlog.MustParsePrefix("4.3.3.0/24"), ndlog.Str("s6")),
		Tick:  5}
	e, _, err := cl.ReplayWith([]Change{ch})
	if err != nil {
		t.Fatal(err)
	}
	if !e.ExistsEver("web1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.3.1"))) {
		t.Error("counterfactual change had no effect in clone replay")
	}
	if cl.ReplayCount != 1 {
		t.Errorf("clone.ReplayCount = %d, want 1", cl.ReplayCount)
	}
	if s.ReplayCount != parentReplays {
		t.Errorf("parent.ReplayCount = %d, want unchanged %d", s.ReplayCount, parentReplays)
	}
	if cl.Log().Len() != s.Log().Len() {
		t.Errorf("clone log length %d, want %d (logs must match)", cl.Log().Len(), s.Log().Len())
	}

	// ResetStats gives per-request deltas.
	cl.ResetStats()
	if cl.ReplayCount != 0 || cl.ReplayTime != 0 {
		t.Error("ResetStats did not zero the counters")
	}
}

func TestSessionCloneConcurrent(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)
	if _, _, err := s.Graph(); err != nil {
		t.Fatal(err)
	}
	ch := Change{Insert: true, Node: "s1",
		Tuple: ndlog.NewTuple("flowEntry", ndlog.Int(20), ndlog.MustParsePrefix("4.3.3.0/24"), ndlog.Str("s6")),
		Tick:  5}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := s.Clone()
			e, _, err := cl.ReplayWith([]Change{ch})
			if err != nil {
				errs[i] = err
				return
			}
			if !e.ExistsEver("web1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.3.1"))) {
				errs[i] = fmt.Errorf("replay %d: change not applied", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if s.ReplayCount != 1 {
		t.Errorf("parent.ReplayCount = %d, want 1 (clones account privately)", s.ReplayCount)
	}
}

func TestReplayWithContextCancelled(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.ReplayWithContext(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled replay error = %v, want context.Canceled", err)
	}
}

func TestReplayIndexingOffMatchesDefault(t *testing.T) {
	sDef := NewSession(fwdProg)
	sOff := NewSession(fwdProg, Oracle())
	driveScenario(t, sDef)
	driveScenario(t, sOff)

	eDef, gDef, err := sDef.Graph()
	if err != nil {
		t.Fatal(err)
	}
	eOff, gOff, err := sOff.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if gDef.NumVertexes() != gOff.NumVertexes() {
		t.Fatalf("graphs differ: %d vs %d vertexes", gDef.NumVertexes(), gOff.NumVertexes())
	}
	for i := 0; i < gDef.NumVertexes(); i++ {
		vd, vo := gDef.Vertex(i), gOff.Vertex(i)
		if vd.Label() != vo.Label() || vd.At != vo.At {
			t.Fatalf("vertex %d differs: %s vs %s", i, vd, vo)
		}
	}
	snapDef, snapOff := eDef.CaptureState(), eOff.CaptureState()
	if snapDef.NumTuples() != snapOff.NumTuples() {
		t.Fatalf("states differ: %d vs %d tuples", snapDef.NumTuples(), snapOff.NumTuples())
	}
	// The fwd rule's flowEntry atom binds no columns from the packet
	// delta (Prio, M, Nxt are all free), so even the indexed engine
	// falls back to scans here — and the oracle's must never probe.
	if st := eOff.Stats(); st.IndexProbes != 0 {
		t.Errorf("oracle replay probed an index: %+v", st)
	}
}

// TestLogEventsReturnsCopy is the regression test for Log.Events
// aliasing its internal slice: mutating or appending through the
// returned slice must never reach the log (aliased appends bypassed the
// base run's log-length invalidation).
func TestLogEventsReturnsCopy(t *testing.T) {
	l := NewLog()
	l.Insert("n1", ndlog.NewTuple("packet", ndlog.IP(1)), 1)
	l.Insert("n1", ndlog.NewTuple("packet", ndlog.IP(2)), 2)

	evs := l.Events()
	evs[0].Tick = 999
	evs[0].Node = "evil"
	if got := l.At(0); got.Tick != 1 || got.Node != "n1" {
		t.Fatalf("mutating the returned slice reached the log: %+v", got)
	}
	_ = append(evs, Event{Kind: EvInsert, Node: "n2", Tick: 3})
	if l.Len() != 2 {
		t.Fatalf("appending through the returned slice changed the log length to %d", l.Len())
	}
	if got := l.Events(); len(got) != 2 || got[0].Tick != 1 {
		t.Fatalf("log corrupted after append through returned slice: %+v", got)
	}
}
