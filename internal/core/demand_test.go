package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/replay"
)

// tooNarrow is a demand that leaves flowEntry out: the demand a bad packet
// induces under a program in which flowEntry is derived from a table no
// rule the packet triggers reads.
func tooNarrow(t *testing.T, seed ndlog.Tuple) ndlog.Demand {
	t.Helper()
	d := ndlog.NewDemand(ndlog.MustParse(`
table flowEntry/3;
table staged/3 base;
table packet/1 event base;
rule st flowEntry(@Sw, Prio, M, Nxt) :- staged(@Sw, Prio, M, Nxt).
rule fw packet(@Nxt, Dst) :- packet(@Sw, Dst), staged(@Sw, Prio, M, Nxt), matches(Dst, M), argmax Prio.
`), seed)
	if !d.Covers(seed) || d.CoversMatch("flowEntry", nil) {
		t.Fatalf("the demand covers the seed %v and every flowEntry %v; want the seed alone", d.Covers(seed), d.CoversMatch("flowEntry", nil))
	}
	return d
}

// TestTooNarrowDemandWidensOnce: a world whose demand is too narrow for a
// diagnosis — SDN4's first round applied, under a demand that leaves the
// side table flowEntry out — answers the second round's reads of flowEntry
// from the full trial it widens to, once, and the diagnosis from it is the
// one from the full trial's world, byte for byte.
func TestTooNarrowDemandWidensOnce(t *testing.T) {
	ctx := context.Background()
	s := replay.NewSession(ndlog.MustParse(sdn1Program))
	for _, c := range []replay.Change{
		{Insert: true, Node: "s1", Tuple: fe(10, "4.3.2.0/24", "s2")},
		{Insert: true, Node: "s1", Tuple: fe(1, "0.0.0.0/0", "x1")},
		{Insert: true, Node: "x1", Tuple: fe(1, "0.0.0.0/0", "webWrong")},
		{Insert: true, Node: "s2", Tuple: fe(10, "4.3.2.0/24", "s6")},
		{Insert: true, Node: "s2", Tuple: fe(1, "0.0.0.0/0", "x2")},
		{Insert: true, Node: "x2", Tuple: fe(1, "0.0.0.0/0", "webWrong")},
		{Insert: true, Node: "s6", Tuple: fe(1, "0.0.0.0/0", "web1")},
		{Insert: true, Node: "s1", Tuple: pkt("4.3.2.1"), Tick: 10},
		{Insert: true, Node: "s1", Tuple: pkt("4.3.3.1"), Tick: 20},
	} {
		if err := s.Insert(c.Node, c.Tuple, c.Tick); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	good := treeFor(t, g, "web1", pkt("4.3.2.1"))
	bad := treeFor(t, g, "webWrong", pkt("4.3.3.1"))
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Diagnose(ctx, good, bad, world, Options{})
	if err != nil || len(res.Rounds) != 2 {
		t.Fatalf("Diagnose: %v, %d rounds; want 2", err, len(res.Rounds))
	}
	first := res.Rounds[0].Changes
	seed := res.BadSeed.Tuple

	full, err := world.Apply(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Diagnose(ctx, good, bad, full, Options{})
	if err != nil {
		t.Fatal(err)
	}

	right := ndlog.NewDemand(s.Program(), seed)
	w, err := world.(*ndlogWorld).applyDemand(ctx, first, &right)
	if err != nil {
		t.Fatal(err)
	}
	w.(*ndlogWorld).narrow.demand = tooNarrow(t, seed)
	before := s.Stats.DemandWidenings
	got, err := Diagnose(ctx, good, bad, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Stats.DemandWidenings - before; n != 1 {
		t.Errorf("%d widenings, want 1", n)
	}
	if a, b := concludedChanges(got), concludedChanges(want); a != b {
		t.Errorf("the diagnosis from the too narrow world:\n%s\nfrom the full trial's:\n%s", a, b)
	}
}

// concludedChanges renders what a diagnosis concluded: its changes, their
// rounds, its iterations and its seeds.
func concludedChanges(res *Result) string {
	var sb strings.Builder
	for _, c := range res.Changes {
		fmt.Fprintf(&sb, "change %s\n", c)
	}
	for i, r := range res.Rounds {
		for _, c := range r.Changes {
			fmt.Fprintf(&sb, "round %d %s\n", i, c)
		}
	}
	fmt.Fprintf(&sb, "iterations %d\ngoodSeed %s %s @%s\nbadSeed %s %s @%s\n", res.Iterations,
		res.GoodSeed.Node, res.GoodSeed.Tuple.Key(), res.GoodSeed.Stamp, res.BadSeed.Node, res.BadSeed.Tuple.Key(), res.BadSeed.Stamp)
	return sb.String()
}
