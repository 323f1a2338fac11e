package provenance

import (
	"strings"
	"testing"

	"repro/internal/ndlog"
)

// runFwd runs a small forwarding scenario and returns the graph: packets
// at s1 follow the highest-priority matching flow entry toward h1/h2.
func runFwd(t *testing.T) (*ndlog.Engine, *Graph) {
	t.Helper()
	prog := ndlog.MustParse(`
table flowEntry/3 base mutable;   // (prio, match, nextNode)
table packet/1 event base;        // (dstIP)

rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst),
    flowEntry(@Sw, Prio, M, Nxt),
    matches(Dst, M),
    argmax Prio.
`)
	rec := NewRecorder(prog)
	e := ndlog.New(prog, rec)
	mp := ndlog.MustParsePrefix
	ip := ndlog.MustParseIP
	e.ScheduleInsert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(10), mp("4.3.2.0/24"), ndlog.Str("s2")), 0)
	e.ScheduleInsert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("s3")), 0)
	e.ScheduleInsert("s2", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("h1")), 0)
	e.ScheduleInsert("s3", ndlog.NewTuple("flowEntry", ndlog.Int(1), mp("0.0.0.0/0"), ndlog.Str("h2")), 0)
	e.ScheduleInsert("s1", ndlog.NewTuple("packet", ip("4.3.2.1")), 10)
	e.ScheduleInsert("s1", ndlog.NewTuple("packet", ip("4.3.3.1")), 11)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e, rec.Graph()
}

func TestRecorderBuildsGraph(t *testing.T) {
	_, g := runFwd(t)
	if g.NumVertexes() == 0 {
		t.Fatal("empty graph")
	}
	counts := map[VertexType]int{}
	g.Vertexes(func(v *Vertex) { counts[v.Type]++ })
	// 5 base inserts, each with an APPEAR; state tuples add EXISTs.
	if counts[Insert] != 6 {
		t.Errorf("INSERT count = %d, want 6", counts[Insert])
	}
	if counts[Exist] != 4 {
		t.Errorf("EXIST count = %d, want 4 (flow entries only)", counts[Exist])
	}
	// Each packet takes 2 hops: 2 derivations each.
	if counts[Derive] != 4 {
		t.Errorf("DERIVE count = %d, want 4", counts[Derive])
	}
	// Appears: 6 base + 4 derived packet arrivals.
	if counts[Appear] != 10 {
		t.Errorf("APPEAR count = %d, want 10", counts[Appear])
	}
}

func TestTreeProjection(t *testing.T) {
	_, g := runFwd(t)
	// The packet 4.3.2.1 arrives at h1.
	arr := g.LastAppear("h1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1")))
	if arr == nil {
		t.Fatal("packet did not arrive at h1")
	}
	tree := g.Tree(arr.ID)
	if tree == nil {
		t.Fatal("no tree")
	}
	// Root is the APPEAR; child DERIVE; grandchildren include the
	// upstream packet APPEAR and the flow-entry EXIST.
	if tree.Vertex.Type != Appear {
		t.Errorf("root type = %s", tree.Vertex.Type)
	}
	if len(tree.Children) != 1 || tree.Children[0].Vertex.Type != Derive {
		t.Fatalf("root child = %+v", tree.Children)
	}
	d := tree.Children[0]
	if len(d.Children) != 2 {
		t.Fatalf("derive children = %d, want 2 (packet + flow entry)", len(d.Children))
	}
	// Tree size: APPEAR+DERIVE per hop (2 hops), packet APPEARs, flow
	// entry EXIST+APPEAR+INSERT chains, initial INSERT.
	if tree.Size() != 12 {
		t.Errorf("tree size = %d, want 12\n%s", tree.Size(), tree)
	}
	if tree.Depth() < 5 {
		t.Errorf("tree depth = %d, want >= 5", tree.Depth())
	}
	// Parent pointers are consistent.
	tree.Walk(func(n *Tree) {
		for _, c := range n.Children {
			if c.Parent != n {
				t.Error("broken parent pointer")
			}
		}
	})
	if tree.Children[0].Root() != tree {
		t.Error("Root() broken")
	}
}

func TestFindSeed(t *testing.T) {
	_, g := runFwd(t)
	arr := g.LastAppear("h1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1")))
	tree := g.Tree(arr.ID)
	seed, err := tree.FindSeed()
	if err != nil {
		t.Fatal(err)
	}
	if seed.Vertex.Type != Insert {
		t.Fatalf("seed type = %s, want INSERT", seed.Vertex.Type)
	}
	if seed.Vertex.Tuple.Table != "packet" {
		t.Errorf("seed tuple = %s, want the packet (the external stimulus), not config", seed.Vertex.Tuple)
	}
	if seed.Vertex.Node != "s1" {
		t.Errorf("seed node = %s, want s1 (the ingress)", seed.Vertex.Node)
	}
	// The seed is the packet, NOT the flow entries — even though flow
	// entries were inserted too, they appeared earlier.
	if seed.Vertex.Tuple.Args[0] != ndlog.MustParseIP("4.3.2.1") {
		t.Errorf("seed = %s", seed.Vertex.Tuple)
	}
}

func TestFindSeedAgreesWithTriggerMarkers(t *testing.T) {
	_, g := runFwd(t)
	arr := g.LastAppear("h2", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.3.1")))
	tree := g.Tree(arr.ID)
	// Walk by trigger markers instead of timestamps.
	cur := tree
	for cur.Vertex.Type != Insert {
		switch cur.Vertex.Type {
		case Appear, Exist:
			cur = cur.Children[0]
		case Derive:
			if cur.Vertex.Trigger < 0 {
				t.Fatal("derive without trigger marker")
			}
			cur = cur.Children[cur.Vertex.Trigger]
		}
	}
	seed, err := tree.FindSeed()
	if err != nil {
		t.Fatal(err)
	}
	if seed.Vertex != cur.Vertex {
		t.Errorf("timestamp-based seed %s differs from trigger-based %s", seed.Vertex, cur.Vertex)
	}
}

func TestTriggerChain(t *testing.T) {
	_, g := runFwd(t)
	arr := g.LastAppear("h1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1")))
	tree := g.Tree(arr.ID)
	chain, err := tree.TriggerChain()
	if err != nil {
		t.Fatal(err)
	}
	if chain[0] != tree {
		t.Error("chain must start at the root")
	}
	if chain[len(chain)-1].Vertex.Type != Insert {
		t.Error("chain must end at the seed INSERT")
	}
	// The chain alternates through the hops: every packet APPEAR on it.
	var hops []string
	for _, n := range chain {
		if n.Vertex.Type == Appear && n.Vertex.Tuple.Table == "packet" {
			hops = append(hops, n.Vertex.Node)
		}
	}
	want := []string{"h1", "s2", "s1"}
	if len(hops) != len(want) {
		t.Fatalf("hops on chain = %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", hops, want)
		}
	}
}

func TestGraphWellFormedness(t *testing.T) {
	_, g := runFwd(t)
	g.Vertexes(func(v *Vertex) {
		// Acyclicity: children strictly precede parents in ID order.
		for _, c := range v.Children() {
			if c >= v.ID {
				t.Errorf("vertex %d has child %d >= itself", v.ID, c)
			}
		}
		switch v.Type {
		case Derive:
			if len(v.Children()) == 0 {
				t.Errorf("DERIVE %s has no children", v.Tuple)
			}
			if v.Trigger < 0 || v.Trigger >= len(v.Children()) {
				t.Errorf("DERIVE %s has bad trigger %d", v.Tuple, v.Trigger)
			}
			for _, c := range v.Children() {
				ct := g.Vertex(c).Type
				if ct != Exist && ct != Appear {
					t.Errorf("DERIVE child is %s", ct)
				}
			}
		case Appear:
			if len(v.Children()) != 1 {
				t.Errorf("APPEAR %s has %d causes, want 1", v.Tuple, len(v.Children()))
			} else {
				ct := g.Vertex(v.Children()[0]).Type
				if ct != Insert && ct != Derive {
					t.Errorf("APPEAR child is %s", ct)
				}
			}
		case Exist:
			if len(v.Children()) != 1 || g.Vertex(v.Children()[0]).Type != Appear {
				t.Errorf("EXIST %s has bad children", v.Tuple)
			}
		case Insert, Delete:
			if len(v.Children()) != 0 {
				t.Errorf("%s must be a leaf", v.Type)
			}
		}
	})
}

func TestExistIntervalClosesOnDelete(t *testing.T) {
	prog := ndlog.MustParse(`
table cfg/1 base mutable;
table d/1;
rule r d(X) :- cfg(X).
`)
	rec := NewRecorder(prog)
	e := ndlog.New(prog, rec)
	e.ScheduleInsert("n", ndlog.NewTuple("cfg", ndlog.Int(1)), 0)
	e.ScheduleDelete("n", ndlog.NewTuple("cfg", ndlog.Int(1)), 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	g := rec.Graph()
	var existClosed, underives, disappears, deletes int
	g.Vertexes(func(v *Vertex) {
		switch v.Type {
		case Exist:
			if !v.Open {
				existClosed++
				if v.Span.To.T != 10 {
					t.Errorf("EXIST closed at %v, want t=10", v.Span.To)
				}
			}
		case Underive:
			underives++
			if len(v.Children()) != 1 || g.Vertex(v.Children()[0]).Type != Disappear {
				t.Error("UNDERIVE must be caused by a DISAPPEAR")
			}
		case Disappear:
			disappears++
		case Delete:
			deletes++
		}
	})
	if existClosed != 2 {
		t.Errorf("closed EXISTs = %d, want 2", existClosed)
	}
	if underives != 1 || disappears != 2 || deletes != 1 {
		t.Errorf("underives/disappears/deletes = %d/%d/%d, want 1/2/1", underives, disappears, deletes)
	}
}

func TestFindAppears(t *testing.T) {
	_, g := runFwd(t)
	pkts := g.FindAppears("h1", "packet", nil)
	if len(pkts) != 1 {
		t.Fatalf("packets at h1 = %d, want 1", len(pkts))
	}
	filtered := g.FindAppears("h1", "packet", func(tu ndlog.Tuple) bool {
		return tu.Args[0] == ndlog.MustParseIP("9.9.9.9")
	})
	if len(filtered) != 0 {
		t.Error("filter must apply")
	}
	if got := g.FindAppears("nowhere", "packet", nil); got != nil {
		t.Error("unknown node should yield nothing")
	}
}

func TestAppearVertexesChronological(t *testing.T) {
	prog := ndlog.MustParse("table a/1 base mutable;")
	rec := NewRecorder(prog)
	e := ndlog.New(prog, rec)
	tup := ndlog.NewTuple("a", ndlog.Int(1))
	e.ScheduleInsert("n", tup, 0)
	e.ScheduleDelete("n", tup, 5)
	e.ScheduleInsert("n", tup, 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ids := rec.Graph().AppearVertexes("n", tup)
	if len(ids) != 2 {
		t.Fatalf("appearances = %d, want 2", len(ids))
	}
	a0 := rec.Graph().Vertex(ids[0])
	a1 := rec.Graph().Vertex(ids[1])
	if !a0.At.Before(a1.At) {
		t.Error("appearances out of order")
	}
	if last := rec.Graph().LastAppear("n", tup); last.ID != ids[1] {
		t.Error("LastAppear should return the most recent")
	}
}

func TestVertexStringAndLabel(t *testing.T) {
	_, g := runFwd(t)
	var sawExist, sawDerive bool
	g.Vertexes(func(v *Vertex) {
		s := v.String()
		l := v.Label()
		if strings.Contains(l, "t0.") || strings.Contains(l, "@") {
			t.Errorf("label must not contain timestamps: %s", l)
		}
		switch v.Type {
		case Exist:
			sawExist = true
			if !strings.HasPrefix(s, "EXIST(") {
				t.Errorf("exist rendering: %s", s)
			}
		case Derive:
			sawDerive = true
			if !strings.Contains(l, "fw") {
				t.Errorf("derive label should name the rule: %s", l)
			}
		}
	})
	if !sawExist || !sawDerive {
		t.Error("scenario should produce EXIST and DERIVE vertexes")
	}
}

func TestBuilderReportedProvenance(t *testing.T) {
	spec := ndlog.MustParse(`
table input/1 base;
table config/2 base mutable;
table output/2;
rule produce output(W, R) :- input(W), config(K, N), R := hashmod(W, N).
`)
	b := NewBuilder(spec)
	in, err := b.Insert("worker", ndlog.NewTuple("input", ndlog.Str("word")), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := b.Insert("master", ndlog.NewTuple("config", ndlog.Str("reducers"), ndlog.Int(4)), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := ndlog.Int(ndlog.Hash64(ndlog.Str("word")) % 4)
	out, err := b.Derive("produce", "worker", ndlog.NewTuple("output", ndlog.Str("word"), r), 5, []ndlog.At{in, cfg}, -1)
	if err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	tree := g.Tree(g.LastAppear("worker", out.Tuple).ID)
	if tree.Size() != 8 {
		t.Errorf("reported tree size = %d, want 8\n%s", tree.Size(), tree)
	}
	seed, err := tree.FindSeed()
	if err != nil {
		t.Fatal(err)
	}
	// trigger -1 picks the latest body occurrence: the config appeared
	// after the input, so the seed is the config entry.
	if seed.Vertex.Tuple.Table != "config" {
		t.Errorf("seed = %s, want the config tuple", seed.Vertex.Tuple)
	}
}

func TestBuilderValidation(t *testing.T) {
	spec := ndlog.MustParse(`
table in/1 base;
table out/1;
rule r out(X) :- in(X).
`)
	b := NewBuilder(spec)
	if _, err := b.Insert("n", ndlog.NewTuple("nosuch", ndlog.Int(1)), 0); err == nil {
		t.Error("undeclared table must fail")
	}
	if _, err := b.Insert("n", ndlog.NewTuple("in", ndlog.Int(1), ndlog.Int(2)), 0); err == nil {
		t.Error("bad arity must fail")
	}
	in, _ := b.Insert("n", ndlog.NewTuple("in", ndlog.Int(1)), 0)
	if _, err := b.Derive("nosuchrule", "n", ndlog.NewTuple("out", ndlog.Int(1)), 1, []ndlog.At{in}, 0); err == nil {
		t.Error("unknown rule must fail")
	}
	if _, err := b.Derive("r", "n", ndlog.NewTuple("out", ndlog.Int(1)), 1, nil, -1); err == nil {
		t.Error("empty body must fail")
	}
	if _, err := b.Derive("r", "n", ndlog.NewTuple("out", ndlog.Int(1)), 1, []ndlog.At{in}, 7); err == nil {
		t.Error("out-of-range trigger must fail")
	}
	if _, err := b.Derive("r", "n", ndlog.NewTuple("out", ndlog.Int(1)), 1, []ndlog.At{in}, 0); err != nil {
		t.Errorf("valid derivation failed: %v", err)
	}
}

func TestGraphVertexOutOfRange(t *testing.T) {
	g := NewGraph()
	if g.Vertex(-1) != nil || g.Vertex(0) != nil {
		t.Error("out-of-range Vertex must return nil")
	}
	if g.Tree(0) != nil {
		t.Error("tree of missing vertex must be nil")
	}
}

func TestTreeSizeNil(t *testing.T) {
	var tr *Tree
	if tr.Size() != 0 || tr.Depth() != 0 {
		t.Error("nil tree has size/depth 0")
	}
}

func TestTreeDOT(t *testing.T) {
	_, g := runFwd(t)
	arr := g.LastAppear("h1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1")))
	tree := g.Tree(arr.ID)
	dot := tree.DOT("sdn1")
	for _, frag := range []string{"digraph", "INSERT", "DERIVE", "color=blue", "->"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q", frag)
		}
	}
	// Edge count = vertex count - 1 for a tree.
	if got := strings.Count(dot, "->"); got != tree.Size()-1 {
		t.Errorf("edges = %d, want %d", got, tree.Size()-1)
	}
	var nilTree *Tree
	if err := nilTree.WriteDOT(&strings.Builder{}, "x"); err == nil {
		t.Error("nil tree must error")
	}
}

func TestExplain(t *testing.T) {
	_, g := runFwd(t)
	arr := g.LastAppear("h1", ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.1")))
	tree := g.Tree(arr.ID)
	out := tree.Explain()
	for _, frag := range []string{
		"Why did packet(4.3.2.1)",
		"entered the system at s1",
		"rule fw fired on s1",
		"rule fw fired on s2",
		"because:",
		"flowEntry",
		"vertexes",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("explanation missing %q:\n%s", frag, out)
		}
	}
	// The narration is ordered: ingress before delivery.
	if strings.Index(out, "fired on s1") > strings.Index(out, "fired on s2") {
		t.Error("steps out of order")
	}
}
