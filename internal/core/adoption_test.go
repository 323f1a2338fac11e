package core

import (
	"context"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/replay"
)

// derivedEntryProgram models controller-derived flow entries so that
// argmax competitors must be traced through their provenance to a
// mutable base (the intent), exercising traceCompetitorBase locally.
const derivedEntryProgram = `
table intent/4 base mutable;      // (prio, match, sw, nxt)
table switchUp/1 base mutable;    // (sw)
table flowEntry/3;                // (prio, match, nxt) derived per switch
table packet/1 event base;

rule fi flowEntry(@Sw, Prio, M, Nxt) :- intent(@C, Prio, M, Sw, Nxt), switchUp(@C, Sw).
rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt), matches(Dst, M), argmax Prio.
`

func TestArgmaxCompetitorTracedToIntent(t *testing.T) {
	s := replay.NewSession(ndlog.MustParse(derivedEntryProgram))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	intent := func(prio int64, m, sw, nxt string) ndlog.Tuple {
		return ndlog.NewTuple("intent", ndlog.Int(prio), ndlog.MustParsePrefix(m), ndlog.Str(sw), ndlog.Str(nxt))
	}
	must(s.Insert("ctl", ndlog.NewTuple("switchUp", ndlog.Str("s1")), 0))
	must(s.Insert("ctl", intent(1, "0.0.0.0/0", "s1", "web"), 1))
	// The conflicting app's rule shadows part of the legit traffic.
	must(s.Insert("ctl", intent(20, "9.9.0.0/16", "s1", "scrubber"), 2))
	must(s.Insert("s1", pkt("8.8.1.1"), 10)) // good
	must(s.Insert("s1", pkt("9.9.1.1"), 20)) // bad: legitimate but scrubbed
	must(s.Run())

	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	good := treeFor(t, g, "web", pkt("8.8.1.1"))
	bad := treeFor(t, g, "scrubber", pkt("9.9.1.1"))
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Diagnose(context.Background(), good, bad, world, Options{})
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if len(res.Changes) != 1 {
		t.Fatalf("Δ = %v, want 1", res.Changes)
	}
	c := res.Changes[0]
	// The deleted tuple must be the conflicting INTENT (the mutable base
	// beneath the derived competitor entry), not the entry itself.
	if c.Insert || c.Tuple.Table != "intent" {
		t.Fatalf("change = %v, want deleting the conflicting intent", c)
	}
	if c.Tuple.Args[0] != ndlog.Int(20) {
		t.Fatalf("change = %v, want the priority-20 intent", c)
	}
}

// TestAdoptionOfCoexistingEntry reproduces the Stanford §6.7 shape
// locally: the expected derivation's side entry is a *different* entry
// that already exists in the bad world (the co-located subnet's route),
// and the fault is a higher-priority drop entry.
func TestAdoptionOfCoexistingEntry(t *testing.T) {
	s := replay.NewSession(ndlog.MustParse(sdn1Program))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Two co-located subnets behind the same next hop; the bad one also
	// matches a higher-priority drop entry (the fault).
	must(s.Insert("s2", fe(5, "172.19.254.0/24", "zone"), 0))
	must(s.Insert("s2", fe(5, "172.20.10.32/27", "zone"), 0))
	must(s.Insert("s2", fe(9, "172.20.10.32/27", "dropbox"), 0))
	must(s.Insert("s2", pkt("172.19.254.7"), 10)) // good: reaches the zone
	must(s.Insert("s2", pkt("172.20.10.33"), 20)) // bad: dropped
	must(s.Run())

	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	good := treeFor(t, g, "zone", pkt("172.19.254.7"))
	bad := treeFor(t, g, "dropbox", pkt("172.20.10.33"))
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Diagnose(context.Background(), good, bad, world, Options{})
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	// The /27 route exists and is adopted; the only change is deleting
	// the drop entry — not inserting any generalized prefix.
	if len(res.Changes) != 1 {
		t.Fatalf("Δ = %v, want 1 (adoption must prevent an extra insert)", res.Changes)
	}
	c := res.Changes[0]
	if c.Insert || !c.Tuple.Equal(fe(9, "172.20.10.32/27", "dropbox")) {
		t.Fatalf("change = %v, want deleting the drop entry", c)
	}
}

// TestRepairCoversConstraint exercises the covers() repair branch: a
// policy prefix must cover the packet's more specific prefix.
func TestRepairCoversConstraint(t *testing.T) {
	prog := ndlog.MustParse(`
table policy/2 base mutable;      // (scope, nxt)
table ann/1 event base;           // (announced prefix)
table accepted/2 event;

rule acc accepted(P, Nxt) :- ann(P), policy(Scope, Nxt), covers(Scope, P).
`)
	s := replay.NewSession(prog)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	scope := ndlog.MustParsePrefix("10.0.0.0/9") // too narrow: meant /8
	must(s.Insert("r", ndlog.NewTuple("policy", scope, ndlog.Str("peer")), 0))
	annG := ndlog.NewTuple("ann", ndlog.MustParsePrefix("10.1.0.0/16"))   // covered
	annB := ndlog.NewTuple("ann", ndlog.MustParsePrefix("10.200.0.0/16")) // outside the /9
	must(s.Insert("r", annG, 10))
	must(s.Insert("r", annB, 20))
	must(s.Run())
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	good := treeFor(t, g, "r", ndlog.NewTuple("accepted", ndlog.MustParsePrefix("10.1.0.0/16"), ndlog.Str("peer")))
	// The bad announcement was never accepted; there is no bad tree for
	// it — instead use a bad event that DID occur: nothing. This test
	// exercises the repair at the solver level instead.
	rule := prog.Rule("acc")
	solver, err := newSolver(prog, rule, []ndlog.At{
		{Node: "r", Tuple: annG},
		{Node: "r", Tuple: ndlog.NewTuple("policy", scope, ndlog.Str("peer"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.bindTrigger(0, ndlog.At{Node: "r", Tuple: annB}); err != nil {
		t.Fatal(err)
	}
	expected := ndlog.At{Node: "r", Tuple: ndlog.NewTuple("accepted", ndlog.MustParsePrefix("10.200.0.0/16"), ndlog.Str("peer"))}
	if err := solver.bindHead(expected); err != nil {
		t.Fatal(err)
	}
	solver.propagate(&expected)
	repaired, err := solver.verify(expected)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(repaired) != 1 || repaired[0] != "Scope" {
		t.Fatalf("repaired = %v, want the Scope prefix generalized", repaired)
	}
	got := solver.envB[solver.cr.Slot("Scope")].(ndlog.Prefix)
	if !got.ContainsPrefix(ndlog.MustParsePrefix("10.200.0.0/16")) {
		t.Errorf("repaired scope %v does not cover the announcement", got)
	}
	if got.Bits > 8 {
		t.Errorf("repaired scope %v, want at most /8 (minimal generalization)", got)
	}
	_ = good
}

// TestWorldAccessors covers the ndlogWorld surface used indirectly.
func TestWorldAccessors(t *testing.T) {
	s := buildSDN1(t)
	w, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Nodes()) < 5 {
		t.Errorf("nodes = %v", w.Nodes())
	}
	if _, ok := w.FirstOccurrence("web2", pkt("4.3.3.1"), 1<<40); !ok {
		t.Error("the bad packet occurred")
	}
	if _, ok := w.FirstOccurrence("web2", pkt("4.3.3.1"), 0); ok {
		t.Error("not before tick 0")
	}
	if w.IsMutable("s1", pkt("4.3.3.1")) {
		t.Error("packets are immutable")
	}
}
