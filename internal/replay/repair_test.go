package replay

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ndlog"
)

// TestLateEventMatchesRebuild: an event logged with a tick the live engine
// has already run past is work in its evaluated past, and the live state
// must come out as the log says — equal to a session rebuilt from the log
// and to the query-time graph's base run. Here a keyed config changes at
// t=10, after probes at t=20..23 have run on the old value: the rebuild
// derives out("k0", "w") from the probe at t=20, so the live system must.
func TestLateEventMatchesRebuild(t *testing.T) {
	prog := ndlog.MustParse(`
table cfg/2 base mutable key(0);
table probe/1 event base;
table out/2;
rule fwd out(K, V) :- probe(@n, K), cfg(@n, K, V).
`)
	s := NewSession(prog)
	insert := func(tu ndlog.Tuple, tick int64) {
		t.Helper()
		if err := s.Insert("n", tu, tick); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		insert(ndlog.NewTuple("cfg", ndlog.Str(fmt.Sprintf("k%d", i)), ndlog.Str("v")), int64(1+i))
	}
	for i := 0; i < 4; i++ {
		insert(ndlog.NewTuple("probe", ndlog.Str(fmt.Sprintf("k%d", i))), int64(20+i))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	insert(ndlog.NewTuple("cfg", ndlog.Str("k0"), ndlog.Str("w")), 10)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	rebuilt, err := FromLog(prog, s.Log())
	if err != nil {
		t.Fatal(err)
	}
	want := rebuilt.Live().CaptureState().State
	if out := ndlog.NewTuple("out", ndlog.Str("k0"), ndlog.Str("w")); !rebuilt.Live().ExistsEver("n", out) {
		t.Fatalf("the rebuild never derived %s", out)
	}
	base, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	MustBeRuleInstances(t, "the base run", prog, g)
	_, rg, err := rebuilt.Graph()
	if err != nil {
		t.Fatal(err)
	}
	MustBeRuleInstances(t, "the rebuild's base run", prog, rg)
	if got := base.CaptureState().State; !reflect.DeepEqual(got, want) {
		t.Fatalf("the query-time base run %v differs from the rebuild %v", got, want)
	}
	if got := s.Live().CaptureState().State; !reflect.DeepEqual(got, want) {
		t.Errorf("live state %v, rebuilt from its own log %v", got, want)
	}
}

// gateProg passes pings through gates and counts what passed on each node.
var gateProg = ndlog.MustParse(`
table gate/1 base mutable;
table ping/1 event base;
table rep/1 event;
table tally/1;
rule rp rep(@C, X) :- ping(@C, X), gate(@C, X).
rule ty tally(@C, N) :- rep(@C, X), N := count().
`)

// TestErasedContributorsReStepTheirGroup: a trial that erases two of a
// count() group's three contributors, at a tick before all three, cuts the
// group's chain back to where it stood then and links the survivor again
// at its own stamp — no link takes a contributor out — in production and
// under Oracle() alike. Every tally chain equals, link by link, the one of
// the run that has the change in its log: tally(1) folds rep(2)@t6 alone,
// stamped at t6, where stepping down from the end state made it a link at
// t3 that folded rep(1)@t7, a contributor from the future (the paper's
// §3.2).
func TestErasedContributorsReStepTheirGroup(t *testing.T) {
	prog := gateProg
	gateOne := ndlog.NewTuple("gate", ndlog.Int(1))
	log := []Change{
		{Insert: true, Node: "n", Tuple: gateOne, Tick: 1},
		{Insert: true, Node: "n", Tuple: ndlog.NewTuple("gate", ndlog.Int(2)), Tick: 1},
	}
	for i, x := range []int64{1, 2, 1} {
		log = append(log, Change{Insert: true, Node: "n", Tuple: ndlog.NewTuple("ping", ndlog.Int(x)), Tick: int64(5 + i)})
	}
	change := []Change{{Node: "n", Tuple: gateOne, Tick: 3}}
	ref, rg, err := logged(t, prog, append(slices.Clip(log), change...)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	MustBeRuleInstances(t, "the run with the delete in its log", prog, rg)
	want := []aggLink{{tick: 6, count: 1, contribs: "n:rep(2)@6"}}
	if got := aggChains(prog, ref, rg)["n tally(1)"]; !slices.Equal(got, want) {
		t.Fatalf("the run with the delete in its log: tally(1)'s chain %v, want %v", got, want)
	}
	for _, oracle := range []bool{false, true} {
		s := logged(t, prog, log, configuration(oracle)...)
		_, bg, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		e, g, err := s.ReplayWith(change)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("oracle=%v trial", oracle)
		MustBeRuleInstances(t, what, prog, g)
		if err := CheckAggChains(prog, e, g, ref, rg, []int64{1, 3, 5, 6, 7}); err != nil {
			t.Errorf("%s: %v", what, err)
		}
		if !reStepped(bg, e) {
			t.Errorf("%s: no count() group was re-stepped", what)
		}
		if got := e.LiveTuples("n", "tally"); len(got) != 1 || !got[0].Equal(ndlog.NewTuple("tally", ndlog.Int(1))) {
			t.Errorf("%s: tally holds %v, want tally(1)", what, got)
		}
		// The cut links have no head: their rows never existed in the trial.
		for _, n := range []int64{2, 3} {
			if e.ExistsEver("n", ndlog.NewTuple("tally", ndlog.Int(n))) {
				t.Errorf("%s: tally(%d), the head of a cut link, still existed", what, n)
			}
		}
	}
}

// TestRebuiltCountChainFoldsItsOwnContributors: a trial that empties a
// count() group and fills it again rebuilds a chain whose links have the
// labels, and so the fingerprints, of the base run's chain. Each new head
// must fold the trial's own contributors, occurrences that exist in the
// trial, not the erased ones of the base chain it resembles.
func TestRebuiltCountChainFoldsItsOwnContributors(t *testing.T) {
	gate := ndlog.NewTuple("gate", ndlog.Int(3))
	for _, oracle := range []bool{false, true} {
		s := NewSession(gateProg, configuration(oracle)...)
		for _, err := range []error{
			s.Insert("n", gate, 2),
			s.Insert("n", ndlog.NewTuple("ping", ndlog.Int(3)), 10),
			s.Insert("n", ndlog.NewTuple("ping", ndlog.Int(3)), 13),
			s.Run(),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		// Project the base run's head first, as a diagnosis does: a fork
		// starts with its base's folds memoized.
		_, bg, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		bg.Tree(bg.LastAppear("n", ndlog.NewTuple("tally", ndlog.Int(2))).ID)
		eng, g, err := s.ReplayWith([]Change{{Node: "n", Tuple: gate, Tick: 2}, {Insert: true, Node: "n", Tuple: gate, Tick: 8}})
		if err != nil {
			t.Fatal(err)
		}
		ap := g.LastAppear("n", ndlog.NewTuple("tally", ndlog.Int(2)))
		if ap == nil {
			t.Fatal("the trial never derived tally(2)")
		}
		kids := g.Tree(ap.ID).Children[0].Children
		if len(kids) != 2 {
			t.Fatalf("oracle=%v: tally(2) folds %d contributors, want 2", oracle, len(kids))
		}
		for _, c := range kids {
			if v := c.Vertex; !eng.Exists(v.Node, v.Tuple, v.At) {
				t.Errorf("oracle=%v: tally(2) folds %s, an occurrence the trial erased", oracle, v)
			}
		}
		MustBeRuleInstances(t, fmt.Sprintf("oracle=%v trial", oracle), gateProg, g)
	}
}

// TestBackdatedInsertIsRecorded: a trial inserting a flow entry two ticks
// before the log does moves the entry's appearance back, and a packet in
// between is forwarded by it. The forwarding DERIVE must list both of its
// preconditions, the entry as it appears from the trial's tick on: the
// recorder sees the backdated appearance, or it cannot resolve the body
// reference and the DERIVE loses a child.
func TestBackdatedInsertIsRecorded(t *testing.T) {
	fe := ndlog.NewTuple("flowEntry", ndlog.Int(1), ndlog.MustParsePrefix("10.0.0.0/8"), ndlog.Str("s2"))
	pkt := ndlog.NewTuple("packet", ndlog.MustParseIP("10.0.0.1"))
	for _, oracle := range []bool{false, true} {
		s := NewSession(fwdProg, configuration(oracle)...)
		for _, err := range []error{s.Insert("s1", fe, 4), s.Insert("s1", pkt, 3), s.Run()} {
			if err != nil {
				t.Fatal(err)
			}
		}
		_, g, err := s.ReplayWith([]Change{{Insert: true, Node: "s1", Tuple: fe, Tick: 2}})
		if err != nil {
			t.Fatal(err)
		}
		ap := g.LastAppear("s2", pkt)
		if ap == nil {
			t.Fatalf("oracle=%v: the trial never forwarded %s", oracle, pkt)
		}
		d := g.Tree(ap.ID).Children[0]
		if len(d.Children) != 2 {
			t.Fatalf("oracle=%v: %s has %d preconditions, want the packet and the flow entry", oracle, d.Vertex, len(d.Children))
		}
		if at := d.Children[1].Vertex.At; at.T != 2 {
			t.Errorf("oracle=%v: the flow entry appears at %s, want tick 2", oracle, at)
		}
		MustBeRuleInstances(t, fmt.Sprintf("oracle=%v trial", oracle), fwdProg, g)
	}
}
