package ndlog

import (
	"errors"
	"strings"
	"testing"
)

func TestAssignActsAsUnificationConstraint(t *testing.T) {
	// B is bound by the route row AND computed by the assignment: only
	// the row whose bucket matches the computed value may derive.
	src := `
table route/2 base mutable;
table seedv/1 base mutable;
table packet/1 event base;
rule fw packet(@Nxt, X) :-
    packet(@Sw, X),
    seedv(@Sw, S),
    B := (X + S) % 2,
    route(@Sw, B, Nxt).
`
	p := MustParse(src)
	e := New(p, nil)
	e.ScheduleInsert("lb", NewTuple("seedv", Int(1)), 0)
	e.ScheduleInsert("lb", NewTuple("route", Int(0), Str("a")), 0)
	e.ScheduleInsert("lb", NewTuple("route", Int(1), Str("b")), 0)
	e.ScheduleInsert("lb", NewTuple("packet", Int(1)), 5) // (1+1)%2 = 0 -> a
	e.ScheduleInsert("lb", NewTuple("packet", Int(2)), 6) // (2+1)%2 = 1 -> b
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.ExistsEver("a", NewTuple("packet", Int(1))) {
		t.Error("packet 1 must reach a")
	}
	if !e.ExistsEver("b", NewTuple("packet", Int(2))) {
		t.Error("packet 2 must reach b")
	}
	if e.ExistsEver("b", NewTuple("packet", Int(1))) || e.ExistsEver("a", NewTuple("packet", Int(2))) {
		t.Error("the assignment must filter the non-matching route row")
	}
	// Exactly one derivation per packet.
	if e.Stats().Derivations != 2 {
		t.Errorf("derivations = %d, want 2", e.Stats().Derivations)
	}
}

func TestDerivationLimitStopsLoops(t *testing.T) {
	// A forwarding loop: n1 sends everything to n2 and vice versa.
	src := `
table fwd/1 base mutable;
table packet/1 event base;
rule fw packet(@Nxt, X) :- packet(@Sw, X), fwd(@Sw, Nxt).
`
	p := MustParse(src)
	e := New(p, nil, WithDerivationLimit(1000))
	e.ScheduleInsert("n1", NewTuple("fwd", Str("n2")), 0)
	e.ScheduleInsert("n2", NewTuple("fwd", Str("n1")), 0)
	e.ScheduleInsert("n1", NewTuple("packet", Int(1)), 5)
	err := e.Run()
	if err == nil {
		t.Fatal("a forwarding loop must hit the derivation limit")
	}
	if !strings.Contains(err.Error(), "derivation limit") {
		t.Errorf("error = %v, want a derivation-limit diagnosis", err)
	}
}

// TestDerivationLimitStopsCountCycle: a cycle that runs through a count()
// rule — every tally re-announces itself as the event it counts — stops at
// the limit like any other, on whichever rule crosses it, and the error
// names that rule. The limit is even and the rules alternate (c derives the
// odd-numbered derivations), so the derivation that crosses it is an
// aggregate step's: the path that used to count without checking. The
// static analysis refuses such a program (ND007, unstratified aggregation),
// so the limit is the backstop of engines built with it off; the model's own
// cap (K < 500) ends an unchecked run.
func TestDerivationLimitStopsCountCycle(t *testing.T) {
	src := `
table ping/1 event base;
table tally/1;
rule c tally(@N, K) :- ping(@N, X), K := count().
rule p ping(@N, K) :- tally(@N, K), K < 500.
`
	const limit = 100
	e := newUnanalyzed(MustParse(src), nil, WithDerivationLimit(limit))
	e.ScheduleInsert("n", NewTuple("ping", Int(0)), 1)
	err := e.Run()
	var dl *DeriveLimitError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a *DeriveLimitError", err)
	}
	if *dl != (DeriveLimitError{Rule: "c", Node: "n", Limit: limit}) {
		t.Errorf("limit error %+v, want rule c on n at %d", *dl, limit)
	}
	if got := e.Stats().Derivations; got != limit+1 {
		t.Errorf("stopped after %d derivations, want %d (the one that crossed the limit)", got, limit+1)
	}
	if !strings.Contains(err.Error(), "non-terminating model?") || !strings.Contains(err.Error(), "rule c") {
		t.Errorf("message %q lost the hint or the rule", err)
	}
}

func TestDerivationLimitDisabled(t *testing.T) {
	src := `
table a/1 base;
table b/1;
rule r b(X) :- a(X).
`
	e := New(MustParse(src), nil, WithDerivationLimit(0))
	for i := 0; i < 100; i++ {
		e.ScheduleInsert("n", NewTuple("a", Int(int64(i))), int64(i))
	}
	if err := e.Run(); err != nil {
		t.Fatalf("limit 0 disables the guard: %v", err)
	}
}

func TestSnapshotCapture(t *testing.T) {
	src := `
table cfg/1 base mutable;
table d/1;
rule r d(X) :- cfg(X).
`
	e := New(MustParse(src), nil)
	e.ScheduleInsert("n", NewTuple("cfg", Int(2)), 0)
	e.ScheduleInsert("n", NewTuple("cfg", Int(1)), 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := e.CaptureState()
	if snap.NumTuples() != 4 {
		t.Fatalf("snapshot tuples = %d, want 4 (2 cfg + 2 derived)", snap.NumTuples())
	}
	if !snap.Lookup("n", NewTuple("d", Int(1))) {
		t.Error("derived tuple missing from snapshot")
	}
	if snap.Lookup("n", NewTuple("d", Int(3))) {
		t.Error("phantom tuple in snapshot")
	}
	if snap.Lookup("m", NewTuple("d", Int(1))) {
		t.Error("snapshot lookup must be per node")
	}
	// Deterministic ordering: tuples sorted by key.
	rows := snap.State["n"]["cfg"]
	if len(rows) != 2 || !(rows[0].Key() < rows[1].Key()) {
		t.Errorf("snapshot rows not in canonical order: %v", rows)
	}
	// Snapshots are deep copies.
	rows[0].Args[0] = Int(99)
	if e.LiveTuples("n", "cfg")[0].Args[0] == Int(99) {
		t.Error("snapshot must not share storage with the engine")
	}
}

// TestCaptureAllocatesPerRowNotPerComparison: a checkpoint's capture sorts
// each table by the keys its rows hold, so what it allocates grows with
// the rows it copies — one args slice each — and not with the O(n log n)
// comparisons of the sort; a lookup in the snapshot allocates nothing.
func TestCaptureAllocatesPerRowNotPerComparison(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := New(MustParse("table cfg/2 base mutable;"), nil)
	const rows = 2000
	for i := rows; i > 0; i-- { // keys inserted in descending order
		if err := e.ScheduleInsert("n", NewTuple("cfg", Int(int64(i)), Str("v")), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	capture := testing.AllocsPerRun(5, func() { snap = e.CaptureState() })
	t.Logf("capture of %d rows: %.0f allocations", rows, capture)
	if capture > rows+32 {
		t.Errorf("capture of %d rows allocates %.0f; want at most one per row and 32 more", rows, capture)
	}
	probe := NewTuple("cfg", Int(rows/2), Str("v"))
	if !snap.Lookup("n", probe) {
		t.Fatal("snapshot lookup misses a live row")
	}
	if lookup := testing.AllocsPerRun(20, func() { snap.Lookup("n", probe) }); lookup != 0 {
		t.Errorf("snapshot lookup allocates %.0f; want 0", lookup)
	}
}

func TestEngineErrorsOnBadRuleEval(t *testing.T) {
	// Division by zero inside a rule surfaces as a Run error.
	src := `
table a/1 base;
table b/1;
rule r b(X / 0) :- a(X).
`
	e := New(MustParse(src), nil)
	e.ScheduleInsert("n", NewTuple("a", Int(1)), 0)
	if err := e.Run(); err == nil {
		t.Error("rule evaluation errors must surface")
	}
}

func TestEngineEventChainsInterleaved(t *testing.T) {
	// Two packets in flight simultaneously stay independent.
	p := buildFwdProgram(t)
	e := New(p, nil, WithDelay(5))
	e.ScheduleInsert("s1", NewTuple("flowEntry", Int(1), MustParsePrefix("0.0.0.0/0"), Str("s2")), 0)
	e.ScheduleInsert("s2", NewTuple("flowEntry", Int(1), MustParsePrefix("0.0.0.0/0"), Str("h")), 0)
	e.ScheduleInsert("s1", NewTuple("packet", MustParseIP("1.1.1.1")), 10)
	e.ScheduleInsert("s1", NewTuple("packet", MustParseIP("2.2.2.2")), 11)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ip := range []string{"1.1.1.1", "2.2.2.2"} {
		if !e.ExistsEver("h", NewTuple("packet", MustParseIP(ip))) {
			t.Errorf("packet %s lost", ip)
		}
	}
}
