package sdn

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// figure1 builds the paper's Figure 1 network: packets enter at s1;
// untrusted sources should go via s2-s6 to web1 (co-located with the
// DPI), everything else via s2-s3-s4-s5 to web2. The operator's typo:
// the untrusted subnet 4.3.2.0/23 written as 4.3.2.0/24.
func figure1(t *testing.T, untrusted string) *Network {
	t.Helper()
	n := NewNetwork()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, sw := range []string{"s1", "s2", "s3", "s4", "s5", "s6"} {
		must(n.SwitchUp(sw))
	}
	must(n.AddPath("web1", "s1", "s2", "s6", "web1"))
	must(n.AddPath("web2", "s1", "s2", "s3", "s4", "s5", "web2"))
	must(n.AddIntent(10, ndlog.MustParsePrefix(untrusted), Any, "web1"))
	must(n.AddIntent(1, Any, Any, "web2"))
	must(n.AddMirror("s6", Any, Any, "dpi"))
	must(n.Run())
	return n
}

var (
	webIP    = ndlog.MustParseIP("10.0.0.80")
	goodHdr  = Header{Src: ndlog.MustParseIP("4.3.2.1"), Dst: webIP, Proto: 6}
	badHdr   = Header{Src: ndlog.MustParseIP("4.3.3.1"), Dst: webIP, Proto: 6}
	otherHdr = Header{Src: ndlog.MustParseIP("8.8.8.8"), Dst: webIP, Proto: 6}
)

func TestFigure1Forwarding(t *testing.T) {
	n := figure1(t, "4.3.2.0/24")
	if _, err := n.InjectPacket("s1", goodHdr); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InjectPacket("s1", badHdr); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InjectPacket("s1", otherHdr); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.Arrived("web1", goodHdr) {
		t.Error("untrusted 4.3.2.1 must reach web1")
	}
	if !n.Arrived("web2", badHdr) {
		t.Error("4.3.3.1 falls through the typo'd rule and reaches web2")
	}
	if !n.Arrived("web2", otherHdr) {
		t.Error("ordinary traffic reaches web2")
	}
	if !n.Arrived("dpi", goodHdr) {
		t.Error("traffic through s6 must be mirrored to the DPI")
	}
	if n.Arrived("dpi", badHdr) {
		t.Error("misrouted traffic bypasses the DPI — the security hole of §2")
	}
}

func TestFigure1CorrectedPolicy(t *testing.T) {
	n := figure1(t, "4.3.2.0/23")
	if _, err := n.InjectPacket("s1", badHdr); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.Arrived("web1", badHdr) {
		t.Error("with the /23 intent, 4.3.3.1 must reach web1")
	}
}

func TestFlowEntriesAreDerivedFromIntents(t *testing.T) {
	n := figure1(t, "4.3.2.0/24")
	ft := n.FlowTable("s2")
	if len(ft) != 2 {
		t.Fatalf("s2 flow table = %v, want 2 entries", ft)
	}
	// Flow entry provenance reaches back to the intent.
	if _, err := n.InjectPacket("s1", goodHdr); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	tree, err := n.ArrivalTree("web1", goodHdr)
	if err != nil {
		t.Fatal(err)
	}
	sawIntent, sawHop, sawPolicyRoute := false, false, false
	tree.Walk(func(node *provenance.Tree) {
		switch node.Vertex.Tuple.Table {
		case "intent":
			sawIntent = true
		case "hop":
			sawHop = true
		case "policyRoute":
			sawPolicyRoute = true
		}
	})
	if !sawIntent || !sawHop || !sawPolicyRoute {
		t.Errorf("packet provenance should reach the controller state: intent=%v hop=%v policyRoute=%v",
			sawIntent, sawHop, sawPolicyRoute)
	}
}

func TestArrivalTreeSize(t *testing.T) {
	n := figure1(t, "4.3.2.0/24")
	if _, err := n.InjectPacket("s1", goodHdr); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InjectPacket("s1", badHdr); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	good, err := n.ArrivalTree("web1", goodHdr)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := n.ArrivalTree("web2", badHdr)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's SDN1 trees have 156 and 201 vertexes; ours must be of
	// the same order (tens to hundreds), with the bad tree larger (it
	// takes the longer path).
	if good.Size() < 40 {
		t.Errorf("good tree size = %d, want a rich tree (>= 40)", good.Size())
	}
	if bad.Size() <= good.Size() {
		t.Errorf("bad tree (%d) should be larger than good (%d): longer path", bad.Size(), good.Size())
	}
}

func TestDiffProvTracesToIntent(t *testing.T) {
	// End-to-end over the derived controller state: the root cause is
	// the typo'd intent at the controller, not the flow entry.
	n := figure1(t, "4.3.2.0/24")
	if _, err := n.InjectPacket("s1", goodHdr); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InjectPacket("s1", badHdr); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	good, err := n.ArrivalTree("web1", goodHdr)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := n.ArrivalTree("web2", badHdr)
	if err != nil {
		t.Fatal(err)
	}
	world, err := core.NewWorld(n.Session())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Diagnose(context.Background(), good, bad, world, core.Options{})
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if len(res.Changes) != 1 {
		t.Fatalf("Δ = %v, want exactly 1", res.Changes)
	}
	c := res.Changes[0]
	if c.Tuple.Table != "intent" || c.Node != "controller" {
		t.Fatalf("change = %v, want an intent change at the controller", c)
	}
	wantMatch := ndlog.MustParsePrefix("4.3.2.0/23")
	if c.Tuple.Args[1] != wantMatch {
		t.Fatalf("change = %s, want the /23 source match", c.Tuple)
	}
}

func TestStaticEntriesAndPinning(t *testing.T) {
	n := NewNetwork()
	if err := n.AddStaticEntry("s1", 5, Any, Any, "h1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.FlowTable("s1")) != 1 {
		t.Fatal("static entry should appear in the flow table")
	}
	n.PinStaticEntry("s1", 5, Any, Any, "h1")
	st := ndlog.NewTuple("staticEntry", ndlog.Int(5), Any, Any, ndlog.Str("h1"))
	if n.Session().IsMutable("s1", st) {
		t.Error("pinned static entry must be immutable")
	}
	if err := n.RemoveStaticEntry("s1", 5, Any, Any, "h1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.FlowTable("s1")) != 0 {
		t.Error("removed static entry must leave the flow table")
	}
}

// TestPinnedStaticEntryReachesDiagnosis: a pin is session state, so every
// world over the session or a later clone of it reads the entry as
// immutable, and a diagnosis whose only fix is re-inserting the pinned
// entry reports that instead of changing it (§4.7).
func TestPinnedStaticEntryReachesDiagnosis(t *testing.T) {
	build := func(pin bool) (*Network, *provenance.Tree, *provenance.Tree) {
		n := NewNetwork()
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		// The good packet leaves s1 by the priority-10 entry to h1; the
		// entry is removed before the bad packet, which falls through to h2.
		must(n.AddStaticEntry("s1", 10, Any, Any, "h1"))
		must(n.AddStaticEntry("s1", 1, Any, Any, "h2"))
		_, err := n.InjectPacket("s1", goodHdr)
		must(err)
		must(n.RemoveStaticEntry("s1", 10, Any, Any, "h1"))
		_, err = n.InjectPacket("s1", badHdr)
		must(err)
		must(n.Run())
		if pin {
			n.PinStaticEntry("s1", 10, Any, Any, "h1")
		}
		good, err := n.ArrivalTree("h1", goodHdr)
		must(err)
		bad, err := n.ArrivalTree("h2", badHdr)
		must(err)
		return n, good, bad
	}
	entry := ndlog.NewTuple("staticEntry", ndlog.Int(10), Any, Any, ndlog.Str("h1"))

	n, good, bad := build(false)
	world, err := core.NewWorld(n.Session())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Diagnose(context.Background(), good, bad, world, core.Options{})
	if err != nil {
		t.Fatalf("unpinned: Diagnose: %v", err)
	}
	if len(res.Changes) != 1 || res.Changes[0].Node != "s1" || !res.Changes[0].Tuple.Equal(entry) {
		t.Fatalf("unpinned: Δ = %v, want only the removed static entry back", res.Changes)
	}

	n, good, bad = build(true)
	for name, s := range map[string]*replay.Session{"session": n.Session(), "clone": n.Session().Clone()} {
		w, err := core.NewWorld(s)
		if err != nil {
			t.Fatal(err)
		}
		if w.IsMutable("s1", entry) {
			t.Errorf("%s: the pinned static entry is mutable in its world", name)
		}
		if !w.IsMutable("s2", entry) {
			t.Errorf("%s: the pin reached another switch", name)
		}
		_, err = core.Diagnose(context.Background(), good, bad, w, core.Options{})
		var de *core.DiagnosisError
		if !errors.As(err, &de) || de.Kind != core.ImmutableChange {
			t.Errorf("%s: Diagnose err = %v, want %s", name, err, core.ImmutableChange)
		}
	}
}

func TestRemoveIntentExpiresEntries(t *testing.T) {
	n := NewNetwork()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.SwitchUp("s1"))
	must(n.AddPath("h1", "s1", "h1"))
	must(n.AddIntent(10, Any, Any, "h1"))
	must(n.Run())
	if len(n.FlowTable("s1")) != 1 {
		t.Fatal("intent should install an entry")
	}
	must(n.RemoveIntent(10, Any, Any, "h1"))
	must(n.Run())
	if len(n.FlowTable("s1")) != 0 {
		t.Error("removing the intent must underive the entry")
	}
}

func TestAddPathValidation(t *testing.T) {
	n := NewNetwork()
	if err := n.AddPath("h", "s1"); err == nil {
		t.Error("single-node path must be rejected")
	}
}

func TestHeaderString(t *testing.T) {
	if goodHdr.String() == "" || goodHdr.Tuple().Table != "packet" {
		t.Error("header accessors broken")
	}
}

func TestArrivalTreeMissingPacket(t *testing.T) {
	n := NewNetwork()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ArrivalTree("nowhere", goodHdr); err == nil {
		t.Error("missing packet must be an error")
	}
}

func TestNetworkOptions(t *testing.T) {
	n := NewNetwork(WithController("ctl"), WithSessionOptions())
	if n.Controller() != "ctl" {
		t.Errorf("controller = %s", n.Controller())
	}
	if n.Session() == nil {
		t.Fatal("session missing")
	}
	if err := n.SwitchUp("s1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Session().Live().LiveTuples("ctl", "switchUp"); len(got) != 1 {
		t.Errorf("switchUp should land on the custom controller, got %v", got)
	}
}

func TestConfigLineEntries(t *testing.T) {
	n := NewNetwork()
	file := ndlog.ID(42)
	if err := n.AddConfigLine("s1", file, 5, Any, Any, "h1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.FlowTable("s1")) != 0 {
		t.Fatal("config lines are inert until the file is loaded")
	}
	if err := n.LoadConfigFile("s1", file); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.FlowTable("s1")) != 1 {
		t.Fatal("loading the config file must install its entries")
	}
	if err := n.RemoveConfigLine("s1", file, 5, Any, Any, "h1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.FlowTable("s1")) != 0 {
		t.Fatal("removing the line must underive the entry")
	}
}

func TestAdvanceToMonotone(t *testing.T) {
	n := NewNetwork()
	n.AdvanceTo(100)
	if n.Tick() != 100 {
		t.Errorf("tick = %d", n.Tick())
	}
	n.AdvanceTo(50) // no-op backwards
	if n.Tick() != 100 {
		t.Error("AdvanceTo must not rewind")
	}
}
