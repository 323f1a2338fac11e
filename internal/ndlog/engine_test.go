package ndlog

import (
	"testing"
)

// recordingObserver collects all observer callbacks for assertions.
type recordingObserver struct {
	inserts    []At
	deletes    []At
	appears    []At
	disappears []At
	derives    []Derivation
	underives  []Underivation
}

// checked enforces the Observer contract on every callback of every test
// that records: the key the engine hands over is the tuple's canonical key.
func checked(at KeyedAt) At {
	if at.Key != at.Tuple.Key() {
		panic("observer got key " + at.Key + " for " + at.Tuple.String())
	}
	return at.At
}

func (o *recordingObserver) OnBaseInsert(at KeyedAt) { o.inserts = append(o.inserts, checked(at)) }
func (o *recordingObserver) OnBaseDelete(at KeyedAt) { o.deletes = append(o.deletes, checked(at)) }
func (o *recordingObserver) OnAppear(at KeyedAt, id int64) {
	o.appears = append(o.appears, checked(at))
}
func (o *recordingObserver) OnDisappear(at KeyedAt, id int64) {
	o.disappears = append(o.disappears, checked(at))
}
func (o *recordingObserver) OnDerive(d Derivation) {
	checked(d.Head)
	if want := (BodyRef{Node: d.Trig.Node, Key: d.Trig.Tuple.Key(), Seq: d.Trig.Stamp.Seq}); d.Refs[d.Trigger] != want {
		panic("Refs[Trigger] does not name the trigger " + d.Trig.Tuple.String())
	}
	o.derives = append(o.derives, d)
}
func (o *recordingObserver) OnUnderive(u Underivation) {
	checked(u.Head)
	checked(u.Cause)
	o.underives = append(o.underives, u)
}

const fwdProgram = `
table flowEntry/3 base mutable;   // (prio, match, nextNode)
table packet/1 event base;        // (dstIP)
table arrived/1 event;            // (dstIP) at destination host
`

// buildFwdProgram adds forwarding rules to the table declarations above:
// a packet at a switch follows the highest-priority matching flow entry.
func buildFwdProgram(t *testing.T) *Program {
	t.Helper()
	src := fwdProgram + `
rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst),
    flowEntry(@Sw, Prio, M, Nxt),
    matches(Dst, M),
    argmax Prio.
`
	// packet heads to hosts are also packets; hosts convert to arrived via
	// a host-local flow "deliver" entry sentinel: model hosts with a rule.
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEngineEventForwardingChain(t *testing.T) {
	p := buildFwdProgram(t)
	obs := &recordingObserver{}
	e := New(p, obs)

	// Topology: s1 -> s2 -> h1; flow entries route 10.0.0.0/8.
	pfx := MustParsePrefix("10.0.0.0/8")
	if err := e.ScheduleInsert("s1", NewTuple("flowEntry", Int(1), pfx, Str("s2")), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleInsert("s2", NewTuple("flowEntry", Int(1), pfx, Str("h1")), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleInsert("s1", NewTuple("packet", MustParseIP("10.1.2.3")), 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	// The packet should appear at s1 (base), s2 (derived), and h1 (derived).
	var hops []string
	for _, a := range obs.appears {
		if a.Tuple.Table == "packet" {
			hops = append(hops, a.Node)
		}
	}
	want := []string{"s1", "s2", "h1"}
	if len(hops) != 3 {
		t.Fatalf("packet hops = %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("packet hops = %v, want %v", hops, want)
		}
	}
	if len(obs.derives) != 2 {
		t.Fatalf("derivations = %d, want 2", len(obs.derives))
	}
	// Each derivation's trigger must be the packet atom (index 0).
	for _, d := range obs.derives {
		if d.Trigger != 0 {
			t.Errorf("trigger = %d, want 0 (the packet event)", d.Trigger)
		}
		if d.Trig.Tuple.Table != "packet" || tableOfKey(d.Refs[0].Key) != "packet" {
			t.Errorf("trigger = %v, refs = %v", d.Trig.Tuple, d.Refs)
		}
	}
}

func TestEngineArgMaxPriority(t *testing.T) {
	p := buildFwdProgram(t)
	obs := &recordingObserver{}
	e := New(p, obs)

	// Two overlapping entries on s1: specific high-prio to s6, general
	// low-prio to s3 (the paper's SDN1 setup).
	specific := MustParsePrefix("4.3.2.0/24")
	general := MustParsePrefix("0.0.0.0/0")
	e.ScheduleInsert("s1", NewTuple("flowEntry", Int(10), specific, Str("s6")), 0)
	e.ScheduleInsert("s1", NewTuple("flowEntry", Int(1), general, Str("s3")), 0)

	e.ScheduleInsert("s1", NewTuple("packet", MustParseIP("4.3.2.1")), 5) // matches both
	e.ScheduleInsert("s1", NewTuple("packet", MustParseIP("4.3.3.1")), 6) // matches general only
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	for _, d := range obs.derives {
		dst := d.Trig.Tuple.Args[0].(IP).String()
		got[dst] = d.Head.Node
	}
	if got["4.3.2.1"] != "s6" {
		t.Errorf("4.3.2.1 routed to %s, want s6 (higher priority wins)", got["4.3.2.1"])
	}
	if got["4.3.3.1"] != "s3" {
		t.Errorf("4.3.3.1 routed to %s, want s3", got["4.3.3.1"])
	}
}

func TestEngineArgMaxDeterministicTieBreak(t *testing.T) {
	p := buildFwdProgram(t)
	run := func() string {
		e := New(p, nil)
		// Two same-priority entries; tie-break must be deterministic.
		e.ScheduleInsert("s1", NewTuple("flowEntry", Int(5), MustParsePrefix("0.0.0.0/0"), Str("a")), 0)
		e.ScheduleInsert("s1", NewTuple("flowEntry", Int(5), MustParsePrefix("1.0.0.0/8"), Str("b")), 0)
		e.ScheduleInsert("s1", NewTuple("packet", MustParseIP("1.2.3.4")), 5)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"a", "b"} {
			if e.ExistsEver(n, NewTuple("packet", MustParseIP("1.2.3.4"))) {
				return n
			}
		}
		return ""
	}
	first := run()
	if first == "" {
		t.Fatal("packet not delivered")
	}
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("tie-break not deterministic: %s vs %s", got, first)
		}
	}
}

func TestEngineStateJoinDerivation(t *testing.T) {
	src := `
table a/1 base;
table b/1 base;
table c/2;
rule j c(X, Y) :- a(X), b(Y).
`
	p := MustParse(src)
	e := New(p, nil)
	e.ScheduleInsert("n", NewTuple("a", Int(1)), 0)
	e.ScheduleInsert("n", NewTuple("b", Int(2)), 1)
	e.ScheduleInsert("n", NewTuple("a", Int(3)), 2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := e.LiveTuples("n", "c")
	if len(got) != 2 {
		t.Fatalf("c tuples = %v, want 2", got)
	}
	// Derived exactly once each (no duplicate derivations).
	if e.Stats().Derivations != 2 {
		t.Errorf("derivations = %d, want 2", e.Stats().Derivations)
	}
}

func TestEngineRecursiveDerivation(t *testing.T) {
	src := `
table link/2 base;
table reach/2;
rule r1 reach(X, Y) :- link(X, Y).
rule r2 reach(X, Z) :- link(X, Y), reach(Y, Z).
`
	p := MustParse(src)
	e := New(p, nil)
	for _, l := range [][2]int64{{1, 2}, {2, 3}, {3, 4}} {
		e.ScheduleInsert("n", NewTuple("link", Int(l[0]), Int(l[1])), 0)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 2}, {2, 3}, {3, 4}, {1, 3}, {2, 4}, {1, 4}}
	got := e.LiveTuples("n", "reach")
	if len(got) != len(want) {
		t.Fatalf("reach = %v, want %d tuples", got, len(want))
	}
	for _, w := range want {
		if !e.ExistsEver("n", NewTuple("reach", Int(w[0]), Int(w[1]))) {
			t.Errorf("missing reach(%d, %d)", w[0], w[1])
		}
	}
}

func TestEngineDeletionCascade(t *testing.T) {
	src := `
table base1/1 base mutable;
table derived1/1;
table derived2/1;
rule d1 derived1(X) :- base1(X).
rule d2 derived2(X) :- derived1(X).
`
	p := MustParse(src)
	obs := &recordingObserver{}
	e := New(p, obs)
	e.ScheduleInsert("n", NewTuple("base1", Int(7)), 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Exists("n", NewTuple("derived2", Int(7)), e.Now()) {
		t.Fatal("derived2(7) should exist")
	}
	e.ScheduleDelete("n", NewTuple("base1", Int(7)), 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Exists("n", NewTuple("derived2", Int(7)), e.Now()) {
		t.Error("derived2(7) should have been underived after base deletion")
	}
	if len(obs.underives) != 2 {
		t.Errorf("underivations = %d, want 2", len(obs.underives))
	}
	if len(obs.disappears) != 3 {
		t.Errorf("disappears = %d, want 3 (base + 2 derived)", len(obs.disappears))
	}
	// Temporal query: the tuple still "existed" at its historic time.
	if !e.Exists("n", NewTuple("derived2", Int(7)), Stamp{T: 5, Seq: 1 << 60}) {
		t.Error("temporal query at t=5 should still see derived2(7)")
	}
}

func TestEngineDeleteRederive(t *testing.T) {
	// SDN3 shape: after the high-priority rule is deleted, packets follow
	// the low-priority rule.
	p := buildFwdProgram(t)
	e := New(p, nil)
	all := MustParsePrefix("0.0.0.0/0")
	e.ScheduleInsert("s1", NewTuple("flowEntry", Int(10), all, Str("hostA")), 0)
	e.ScheduleInsert("s1", NewTuple("flowEntry", Int(1), all, Str("hostB")), 0)
	e.ScheduleInsert("s1", NewTuple("packet", MustParseIP("9.9.9.9")), 5)
	e.ScheduleDelete("s1", NewTuple("flowEntry", Int(10), all, Str("hostA")), 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.ScheduleInsert("s1", NewTuple("packet", MustParseIP("9.9.9.8")), 15)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.ExistsEver("hostA", NewTuple("packet", MustParseIP("9.9.9.9"))) {
		t.Error("first packet should reach hostA (rule still installed)")
	}
	if !e.ExistsEver("hostB", NewTuple("packet", MustParseIP("9.9.9.8"))) {
		t.Error("second packet should reach hostB (rule expired)")
	}
	if e.ExistsEver("hostA", NewTuple("packet", MustParseIP("9.9.9.8"))) {
		t.Error("second packet must not reach hostA")
	}
}

func TestEngineMultisetSupports(t *testing.T) {
	// A tuple derivable two ways survives deletion of one support.
	src := `
table a/1 base mutable;
table b/1 base mutable;
table d/1;
rule r1 d(X) :- a(X).
rule r2 d(X) :- b(X).
`
	p := MustParse(src)
	e := New(p, nil)
	e.ScheduleInsert("n", NewTuple("a", Int(1)), 0)
	e.ScheduleInsert("n", NewTuple("b", Int(1)), 1)
	e.ScheduleDelete("n", NewTuple("a", Int(1)), 2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Exists("n", NewTuple("d", Int(1)), e.Now()) {
		t.Error("d(1) still has one support and must survive")
	}
	e.ScheduleDelete("n", NewTuple("b", Int(1)), 3)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Exists("n", NewTuple("d", Int(1)), e.Now()) {
		t.Error("d(1) lost all supports and must disappear")
	}
}

func TestEngineAssignAndConstraint(t *testing.T) {
	src := `
table foo/2 base;
table bar/2;
rule r bar(A, D) :- foo(A, C), D := 2*C+1, D > 5.
`
	p := MustParse(src)
	e := New(p, nil)
	e.ScheduleInsert("n", NewTuple("foo", Int(1), Int(3)), 0) // D=7 passes
	e.ScheduleInsert("n", NewTuple("foo", Int(2), Int(1)), 0) // D=3 fails
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.ExistsEver("n", NewTuple("bar", Int(1), Int(7))) {
		t.Error("bar(1, 7) should be derived")
	}
	if e.ExistsEver("n", NewTuple("bar", Int(2), Int(3))) {
		t.Error("bar(2, 3) must be filtered by the constraint")
	}
}

func TestEngineRemoteJoin(t *testing.T) {
	// The paper's distributed rule: A(i,j)@X :- B(i)@X, C(j)@Y.
	src := `
table b/1 base;
table c/1 base;
table a/2;
rule r a(@X, I, J) :- b(@X, I), c(@y, J).
`
	p := MustParse(src)
	e := New(p, nil)
	e.ScheduleInsert("y", NewTuple("c", Int(2)), 0)
	e.ScheduleInsert("x", NewTuple("b", Int(1)), 1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.ExistsEver("x", NewTuple("a", Int(1), Int(2))) {
		t.Error("a(1,2) should be derived on x from remote c on y")
	}
}

func TestEngineRemoteHeadDelay(t *testing.T) {
	p := buildFwdProgram(t)
	e := New(p, nil, WithDelay(3))
	e.ScheduleInsert("s1", NewTuple("flowEntry", Int(1), MustParsePrefix("0.0.0.0/0"), Str("s2")), 0)
	e.ScheduleInsert("s1", NewTuple("packet", MustParseIP("1.1.1.1")), 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	arrivals := historyOf(e, "s2", NewTuple("packet", MustParseIP("1.1.1.1")))
	if len(arrivals) != 1 {
		t.Fatalf("history = %v", arrivals)
	}
	if arrivals[0].From.T != 13 {
		t.Errorf("arrival tick = %d, want 13 (10 + delay 3)", arrivals[0].From.T)
	}
}

func TestEngineDeterministicReplay(t *testing.T) {
	p := buildFwdProgram(t)
	run := func() (Stats, []string) {
		obs := &recordingObserver{}
		e := New(p, obs)
		e.ScheduleInsert("s1", NewTuple("flowEntry", Int(2), MustParsePrefix("10.0.0.0/8"), Str("s2")), 0)
		e.ScheduleInsert("s1", NewTuple("flowEntry", Int(1), MustParsePrefix("0.0.0.0/0"), Str("s3")), 0)
		e.ScheduleInsert("s2", NewTuple("flowEntry", Int(1), MustParsePrefix("0.0.0.0/0"), Str("h")), 0)
		e.ScheduleInsert("s3", NewTuple("flowEntry", Int(1), MustParsePrefix("0.0.0.0/0"), Str("h")), 0)
		for i := 0; i < 50; i++ {
			ip := IP(uint32(0x0a000000 + i*7919))
			e.ScheduleInsert("s1", NewTuple("packet", ip), int64(10+i))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var trace []string
		for _, a := range obs.appears {
			trace = append(trace, a.Node+":"+a.Tuple.String()+"@"+a.Stamp.String())
		}
		return e.Stats(), trace
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverges at %d: %s vs %s", i, t1[i], t2[i])
		}
	}
}

func TestEngineScheduleErrors(t *testing.T) {
	p := buildFwdProgram(t)
	e := New(p, nil)
	if err := e.ScheduleInsert("n", NewTuple("nosuch", Int(1)), 0); err == nil {
		t.Error("insert into undeclared table must fail")
	}
	if err := e.ScheduleInsert("n", NewTuple("arrived", Int(1)), 0); err == nil {
		t.Error("insert into non-base table must fail")
	}
	if err := e.ScheduleInsert("n", NewTuple("packet", Int(1), Int(2)), 0); err == nil {
		t.Error("wrong-arity insert must fail")
	}
	if err := e.ScheduleDelete("n", NewTuple("nosuch", Int(1)), 0); err == nil {
		t.Error("delete from undeclared table must fail")
	}
	// Refused alike before and after the engine has run: a change scheduled
	// on a settled engine goes through the same validator.
	for _, settled := range []bool{false, true} {
		if settled {
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ScheduleDelete("n", NewTuple("flowEntry", Int(1)), 0); err == nil {
			t.Errorf("settled=%v: wrong-arity delete must fail", settled)
		}
	}
}

func TestEngineDeleteNonexistentIsNoop(t *testing.T) {
	p := MustParse("table a/1 base;")
	e := New(p, nil)
	e.ScheduleDelete("n", NewTuple("a", Int(1)), 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineEventDeleteRejected(t *testing.T) {
	p := MustParse("table ev/1 event base;")
	e := New(p, nil)
	ev := NewTuple("ev", Int(1))
	// Refused when scheduled, on a fresh engine and a settled one alike, so
	// a caller that logs what it schedules never logs it ...
	if err := e.ScheduleDelete("n", ev, 0); err == nil {
		t.Error("scheduling the deletion of an event tuple must fail")
	}
	if err := e.Run(); err != nil {
		t.Errorf("a refused event must not be queued: %v", err)
	}
	if err := e.ScheduleDelete("n", ev, 0); err == nil {
		t.Error("scheduling the deletion of an event tuple on a settled engine must fail")
	}
	// ... and when evaluated: a work item decoded from a log skips schedule.
	if err := e.deleteBase("n", ev, e.Now()); err == nil {
		t.Error("deleting an event tuple must fail")
	}
}

func TestEngineMutability(t *testing.T) {
	p := MustParse(`
table cfg/1 base mutable;
table pkt/1 event base;
table derived/1;
rule r derived(X) :- cfg(X).
`)
	e := New(p, nil)
	cfg := NewTuple("cfg", Int(1))
	pkt := NewTuple("pkt", Int(1))
	if !e.IsMutable("n", cfg) {
		t.Error("cfg should be mutable")
	}
	if e.IsMutable("n", pkt) {
		t.Error("packets must be immutable")
	}
	if e.IsMutable("n", NewTuple("derived", Int(1))) {
		t.Error("derived tuples are not base, hence not mutable")
	}
}

func TestEngineExistsTemporal(t *testing.T) {
	p := MustParse("table a/1 base mutable;")
	e := New(p, nil)
	tup := NewTuple("a", Int(1))
	e.ScheduleInsert("n", tup, 10)
	e.ScheduleDelete("n", tup, 20)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Exists("n", tup, Stamp{T: 5}) {
		t.Error("must not exist before insertion")
	}
	if !e.Exists("n", tup, Stamp{T: 15}) {
		t.Error("must exist between insert and delete")
	}
	if e.Exists("n", tup, Stamp{T: 25}) {
		t.Error("must not exist after deletion")
	}
	// Reinsertion opens a second interval.
	e.ScheduleInsert("n", tup, 30)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(historyOf(e, "n", tup)); got != 2 {
		t.Errorf("history intervals = %d, want 2", got)
	}
	if !e.Exists("n", tup, Stamp{T: 35}) {
		t.Error("must exist after reinsertion")
	}
}

func TestEngineUnboundLocationScansAllNodes(t *testing.T) {
	src := `
table item/1 base;
table probe/0 event base;
table found/2 event;
rule r found(@here, N, X) :- probe(@here), item(@N, X).
`
	p := MustParse(src)
	obs := &recordingObserver{}
	e := New(p, obs)
	e.ScheduleInsert("a", NewTuple("item", Int(1)), 0)
	e.ScheduleInsert("b", NewTuple("item", Int(2)), 0)
	e.ScheduleInsert("here", NewTuple("probe"), 5)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, a := range obs.appears {
		if a.Tuple.Table == "found" {
			found[a.Tuple.String()] = true
		}
	}
	if len(found) != 2 {
		t.Fatalf("found = %v, want items from both nodes", found)
	}
}

func TestEngineStatsCounts(t *testing.T) {
	p := buildFwdProgram(t)
	e := New(p, nil)
	e.ScheduleInsert("s1", NewTuple("flowEntry", Int(1), MustParsePrefix("0.0.0.0/0"), Str("s2")), 0)
	e.ScheduleInsert("s1", NewTuple("packet", MustParseIP("1.1.1.1")), 1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.BaseInserts != 2 {
		t.Errorf("BaseInserts = %d", s.BaseInserts)
	}
	if s.Derivations != 1 {
		t.Errorf("Derivations = %d", s.Derivations)
	}
	if s.Messages != 1 {
		t.Errorf("Messages = %d", s.Messages)
	}
	if got := e.Nodes(); len(got) != 2 {
		t.Errorf("Nodes = %v", got)
	}
}
