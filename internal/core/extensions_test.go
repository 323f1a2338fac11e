package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/replay"
)

func TestMinimizeDropsRedundantChanges(t *testing.T) {
	// SDN4-style: two faults, but we also verify that minimization keeps
	// both (each is necessary).
	s := replay.NewSession(ndlog.MustParse(sdn1Program))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Insert("s1", fe(10, "4.3.2.0/24", "s2"), 0))
	must(s.Insert("s1", fe(1, "0.0.0.0/0", "x1"), 0))
	must(s.Insert("x1", fe(1, "0.0.0.0/0", "webWrong"), 0))
	must(s.Insert("s2", fe(10, "4.3.2.0/24", "s6"), 0))
	must(s.Insert("s2", fe(1, "0.0.0.0/0", "x2"), 0))
	must(s.Insert("x2", fe(1, "0.0.0.0/0", "webWrong"), 0))
	must(s.Insert("s6", fe(1, "0.0.0.0/0", "web1"), 0))
	must(s.Insert("s1", pkt("4.3.2.1"), 10))
	must(s.Insert("s1", pkt("4.3.3.1"), 20))
	must(s.Run())
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
	before := s.ReplayCount
	res, err := Diagnose(context.Background(), good, bad, world, Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 2 {
		t.Fatalf("Δ = %v; both fixes are necessary, minimization must keep them", res.Changes)
	}
	// Every trial replays: the two rounds' UPDATETREE and the two drop
	// candidates, although dropping the second change rebuilds the first
	// round's change list.
	if n := s.ReplayCount - before; n != 4 {
		t.Errorf("%d replays, want 4 (2 rounds + 2 drop candidates)", n)
	}
	// The final world still routes the bad packet correctly.
	fw := res.FinalWorld.(*ndlogWorld)
	if !fw.engine.ExistsEver("web1", pkt("4.3.3.1")) {
		t.Error("minimized Δ must still align the trees")
	}
}

func TestMinimizeRemovesGenuinelyRedundantChange(t *testing.T) {
	// Craft a redundancy: diagnose, then re-diagnose with an extra
	// no-op change appended; minimization strips it.
	s := buildSDN1(t)
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	good := treeFor(t, g, "web1", pkt("4.3.2.1"))
	bad := treeFor(t, g, "web2", pkt("4.3.3.1"))
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Diagnose(context.Background(), good, bad, world, Options{})
	if err != nil {
		t.Fatal(err)
	}
	extra := append(append([]replay.Change(nil), res.Changes...),
		replay.Change{Insert: true, Node: "s4", Tuple: fe(3, "9.9.9.0/24", "s5"), Tick: 5})
	w2, err := world.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Minimize manually through the exported path: re-run Diagnose with
	// Minimize on a world pre-loaded with the redundant change.
	_ = w2
	d := &diag{prog: world.Program(), scratch: new(scratch)}
	d.pool.init(world, 1, &d.stats)
	chainG, err := goodChain(good)
	if err != nil {
		t.Fatal(err)
	}
	seedBT, err := bad.FindSeed()
	if err != nil {
		t.Fatal(err)
	}
	seedB := ndlog.At{Node: seedBT.Vertex.Node, Tuple: seedBT.Vertex.Tuple, Stamp: seedBT.Vertex.At}
	resM := &Result{Changes: extra}
	if err := d.minimize(context.Background(), resM, chainG, seedB); err != nil {
		t.Fatal(err)
	}
	if len(resM.Changes) != 1 {
		t.Fatalf("minimization kept %v, want only the real fix", resM.Changes)
	}
	if !resM.Changes[0].Tuple.Equal(res.Changes[0].Tuple) {
		t.Errorf("kept %s, want %s", resM.Changes[0].Tuple, res.Changes[0].Tuple)
	}
}

func TestAutoDiagnoseSDN1(t *testing.T) {
	// No operator-supplied reference: mine one from the execution.
	s := buildSDN1(t)
	// Add extra traffic so several candidates exist.
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Insert("s1", pkt("4.3.2.7"), 30)) // another correctly-routed untrusted packet
	must(s.Insert("s1", pkt("8.8.8.8"), 31)) // ordinary traffic to web2
	must(s.Run())
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	bad := treeFor(t, g, "web2", pkt("4.3.3.1"))
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	res, ref, err := AutoDiagnose(context.Background(), bad, world, Options{})
	if err != nil {
		t.Fatalf("AutoDiagnose: %v", err)
	}
	if ref == nil {
		t.Fatal("no reference returned")
	}
	// The best-ranked usable reference is an untrusted-subnet packet
	// (longest shared source prefix), and the diagnosis is the /23 fix.
	if len(res.Changes) != 1 {
		t.Fatalf("Δ = %v, want 1", res.Changes)
	}
	want := fe(10, "4.3.2.0/23", "s6")
	if !res.Changes[0].Tuple.Equal(want) {
		t.Fatalf("change = %s, want %s (mined reference should be the similar untrusted packet)", res.Changes[0].Tuple, want)
	}
}

func TestFindReferenceCandidatesRanking(t *testing.T) {
	s := buildSDN1(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Insert("s1", pkt("8.8.8.8"), 30))
	must(s.Run())
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	bad := treeFor(t, g, "web2", pkt("4.3.3.1"))
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := FindReferenceCandidates(bad, world, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("candidates = %d, want at least the 4.3.2.1 and 8.8.8.8 packets", len(cands))
	}
	// 4.3.2.1 shares a /23 with 4.3.3.1; 8.8.8.8 shares nearly nothing.
	first := cands[0].Tree.Vertex.Tuple
	if first.Args[0] != ndlog.MustParseIP("4.3.2.1") {
		t.Errorf("top candidate = %s, want the similar untrusted packet", first)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Error("candidates must be sorted by similarity")
		}
	}
	if _, err := FindReferenceCandidates(bad, world, 0); err != nil {
		t.Errorf("default limit should work: %v", err)
	}
}

func TestAutoDiagnoseNoCandidates(t *testing.T) {
	// A lone bad event with no other traffic: nothing to mine.
	s := replay.NewSession(ndlog.MustParse(sdn1Program))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Insert("s1", fe(1, "0.0.0.0/0", "h"), 0))
	must(s.Insert("s1", pkt("1.2.3.4"), 10))
	must(s.Run())
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	bad := treeFor(t, g, "h", pkt("1.2.3.4"))
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := AutoDiagnose(context.Background(), bad, world, Options{}); err == nil {
		t.Error("no candidates must be an error")
	}
}

// TestECMPWithSeed reproduces §4.9's load-balancer discussion: "in the
// presence of load-balancers that make random decisions, e.g., ECMP with
// a random seed, DiffProv would need to reason about the balancing
// mechanism using the seed". The seed is modeled as state, the balancer
// as a deterministic builtin over it.
func TestECMPWithSeed(t *testing.T) {
	prog := ndlog.MustParse(`
table route/2 base mutable key(0);   // (bucket, nextHop)
table ecmpSeed/1 base mutable;       // (seed)
table packet/1 event base;           // (src)

rule fw packet(@Nxt, Src) :-
    packet(@Sw, Src),
    ecmpSeed(@Sw, Seed),
    B := hashmod(Src ^ Seed, 2),
    route(@Sw, B, Nxt).
`)
	s := replay.NewSession(prog)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Insert("lb", ndlog.NewTuple("ecmpSeed", ndlog.Int(12345)), 0))
	must(s.Insert("lb", ndlog.NewTuple("route", ndlog.Int(0), ndlog.Str("backendA")), 0))
	must(s.Insert("lb", ndlog.NewTuple("route", ndlog.Int(1), ndlog.Str("backendBroken")), 0)) // fault
	// Find one src per bucket.
	var src0, src1 ndlog.IP
	for ip := uint32(1); src0 == 0 || src1 == 0; ip++ {
		// Mirror the engine's evaluation: IP ^ Int keeps the IP kind.
		b := ndlog.Hash64(ndlog.IP(uint32(int64(ip)^12345))) % 2
		if b == 0 && src0 == 0 {
			src0 = ndlog.IP(ip)
		}
		if b == 1 && src1 == 0 {
			src1 = ndlog.IP(ip)
		}
	}
	must(s.Insert("lb", ndlog.NewTuple("packet", src0), 10)) // good: backendA
	must(s.Insert("lb", ndlog.NewTuple("packet", src1), 20)) // bad: broken backend
	must(s.Run())
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	good := treeFor(t, g, "backendA", ndlog.NewTuple("packet", src0))
	bad := treeFor(t, g, "backendBroken", ndlog.NewTuple("packet", src1))
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
	// The balancer itself (hashmod over the seed) is deterministic and
	// re-evaluated, so the root cause is bucket 1's route: changed to
	// the good backend (keyed replacement).
	if c.Tuple.Table != "route" || c.Tuple.Args[0] != ndlog.Int(1) || c.Tuple.Args[1] != ndlog.Str("backendA") {
		t.Fatalf("change = %v, want route(1, backendA)", c)
	}
}

// TestFollowKeyedRows contrasts the two resolution strategies for
// load-balancer indirection (§4.9): without the option, DiffProv aligns
// by re-aiming the selector's row; with it, the bad world's own selected
// row is followed and the diagnosis lands on that row's content.
func TestFollowKeyedRows(t *testing.T) {
	prog := ndlog.MustParse(`
table record/2 base mutable key(0);   // (name, addr) on a server
table pool/2 base mutable key(0);     // (slot, server) at the resolver
table poolSize/1 base mutable;
table query/2 event base;             // (id, name)
table ask/2 event;
table response/3 event;

rule q1 ask(@Srv, Q, Name) :- query(@R, Q, Name), poolSize(@R, N), I := hashmod(Q, N), pool(@R, I, Srv).
rule q2 response(@r1, Q, Name, Addr) :- ask(@Srv, Q, Name), record(@Srv, Name, Addr).
`)
	oldA := ndlog.MustParseIP("192.0.2.10")
	newA := ndlog.MustParseIP("192.0.2.99")
	name := ndlog.Str("api")
	build := func() *replay.Session {
		s := replay.NewSession(prog)
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, srv := range []string{"nsA", "nsB"} {
			must(s.Insert("r1", ndlog.NewTuple("pool", ndlog.Int(int64(i)), ndlog.Str(srv)), 1))
		}
		must(s.Insert("r1", ndlog.NewTuple("poolSize", ndlog.Int(2)), 2))
		must(s.Insert("nsA", ndlog.NewTuple("record", name, oldA), 3)) // stale
		must(s.Insert("nsB", ndlog.NewTuple("record", name, newA), 4)) // fresh
		return s
	}
	// Query ids per slot.
	var qA, qB int64
	for q := int64(1); qA == 0 || qB == 0; q++ {
		if ndlog.Hash64(ndlog.Int(q))%2 == 0 {
			if qA == 0 {
				qA = q
			}
		} else if qB == 0 {
			qB = q
		}
	}
	s := build()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Insert("r1", ndlog.NewTuple("query", ndlog.Int(qB), name), 100)) // good: fresh
	must(s.Insert("r1", ndlog.NewTuple("query", ndlog.Int(qA), name), 110)) // bad: stale
	must(s.Run())
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	good := treeFor(t, g, "r1", ndlog.NewTuple("response", ndlog.Int(qB), name, newA))
	bad := treeFor(t, g, "r1", ndlog.NewTuple("response", ndlog.Int(qA), name, oldA))
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}

	// Default strategy: re-aim slot 0 (a valid counterfactual).
	res, err := Diagnose(context.Background(), good, bad, world, Options{})
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	if len(res.Changes) != 1 || res.Changes[0].Tuple.Table != "pool" {
		t.Fatalf("default Δ = %v, want a pool re-aim", res.Changes)
	}

	// FollowKeyedRows: fix the selected server's record.
	res, err = Diagnose(context.Background(), good, bad, world, Options{FollowKeyedRows: true})
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if len(res.Changes) != 1 {
		t.Fatalf("follow Δ = %v, want 1", res.Changes)
	}
	c := res.Changes[0]
	if c.Tuple.Table != "record" || c.Node != "nsA" || c.Tuple.Args[1] != newA {
		t.Fatalf("follow Δ = %v, want the stale record on nsA replaced", c)
	}
}

// TestDerivationLimitSurfacesThroughApply: a trial whose change set turns
// the model into a forwarding loop fails with the engine's typed limit
// error — through the session's replay and the world's Apply — so the server
// can name the rule.
func TestDerivationLimitSurfacesThroughApply(t *testing.T) {
	s := replay.NewSession(ndlog.MustParse(sdn1Program), replay.WithEngineOptions(ndlog.WithDerivationLimit(50)))
	for _, err := range []error{
		s.Insert("s1", fe(1, "0.0.0.0/0", "s2"), 0),
		s.Insert("s1", pkt("4.3.2.1"), 10),
		s.Run(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	_, err = world.Apply(context.Background(), []replay.Change{{Insert: true, Node: "s2", Tuple: fe(1, "0.0.0.0/0", "s1"), Tick: 0}})
	var dl *ndlog.DeriveLimitError
	if !errors.As(err, &dl) || dl.Rule != "fw" || dl.Limit != 50 {
		t.Fatalf("Apply of a loop-closing change: err = %v (%+v), want a DeriveLimitError naming rule fw", err, dl)
	}
}
