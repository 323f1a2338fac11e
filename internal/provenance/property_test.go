package provenance

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/ndlog"
)

// randomExecution drives a random mix of inserts, deletes, and packets
// through a two-rule program and returns the graph plus the engine.
func randomExecution(t *testing.T, seed int64, events int) (*ndlog.Engine, *Graph) {
	t.Helper()
	e, rec, _ := randomRecorded(t, seed, events)
	return e, rec.Graph()
}

// randomProgSrc is the program the generated executions run: two rules
// over deletions, re-derivations, argmax and cross-node messages.
const randomProgSrc = `
table flowEntry/3 base mutable;
table policy/2 base mutable;
table derivedEntry/3;
table packet/1 event base;

rule de derivedEntry(Prio + 100, M, Nxt) :- policy(Prio, Nxt), flowEntry(Prio, M, Nxt).
rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt), matches(Dst, M), argmax Prio.
`

// randomRecorded is randomExecution that also hands back the recorder (to
// seal and fork) and the flow entries it inserted (to delete in a fork).
func randomRecorded(t *testing.T, seed int64, events int) (*ndlog.Engine, *Recorder, []ndlog.At) {
	t.Helper()
	return randomRecordedOn(t, seed, events, randomProgSrc, func(rec *Recorder) ndlog.Observer { return rec })
}

// randomRecordedOn is randomRecorded over a given program (randomProgSrc or
// an extension of it) with the engine observed through wrap(rec) — the
// recorder itself, or a tee that also feeds a reference model.
func randomRecordedOn(t *testing.T, seed int64, events int, src string, wrap func(*Recorder) ndlog.Observer) (*ndlog.Engine, *Recorder, []ndlog.At) {
	t.Helper()
	prog := ndlog.MustParse(src)
	rec := NewRecorder(prog)
	e := ndlog.New(prog, wrap(rec))
	r := rand.New(rand.NewSource(seed))
	nodes := []string{"a", "b", "c"}
	var inserted []ndlog.At
	for i := 0; i < events; i++ {
		node := nodes[r.Intn(len(nodes))]
		tick := int64(i)
		switch r.Intn(5) {
		case 0, 1:
			// Forward strictly "rightward" so forwarding stays loop-free.
			var nxt string
			idx := indexOf(nodes, node)
			if idx+1 < len(nodes) {
				nxt = nodes[idx+1+r.Intn(len(nodes)-idx-1)]
			} else {
				nxt = "sink"
			}
			fe := ndlog.NewTuple("flowEntry",
				ndlog.Int(r.Int63n(10)),
				ndlog.Prefix{Addr: ndlog.IP(r.Uint32()).Mask(8), Bits: 8},
				ndlog.Str(nxt))
			if err := e.ScheduleInsert(node, fe, tick); err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, ndlog.At{Node: node, Tuple: fe})
		case 2:
			if len(inserted) > 0 {
				victim := inserted[r.Intn(len(inserted))]
				if err := e.ScheduleDelete(victim.Node, victim.Tuple, tick); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			pol := ndlog.NewTuple("policy", ndlog.Int(r.Int63n(10)), ndlog.Str(nodes[r.Intn(len(nodes))]))
			if err := e.ScheduleInsert(node, pol, tick); err != nil {
				t.Fatal(err)
			}
		default:
			pkt := ndlog.NewTuple("packet", ndlog.IP(r.Uint32()))
			if err := e.ScheduleInsert(node, pkt, tick); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e, rec, inserted
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return len(ss) - 1
}

// TestGraphInvariantsUnderRandomExecutions checks the provenance
// well-formedness invariants over many random executions (deletions,
// re-derivations, argmax, cross-node messages).
func TestGraphInvariantsUnderRandomExecutions(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		_, g := randomExecution(t, seed, 120)
		counts := map[VertexType]int{}
		g.Vertexes(func(v *Vertex) {
			counts[v.Type]++
			for _, c := range v.Children() {
				if c >= v.ID {
					t.Fatalf("seed %d: cycle: vertex %d -> child %d", seed, v.ID, c)
				}
				if g.Vertex(c) == nil {
					t.Fatalf("seed %d: dangling child %d", seed, c)
				}
			}
			switch v.Type {
			case Derive:
				if v.Trigger < 0 || v.Trigger >= len(v.Children()) {
					t.Fatalf("seed %d: DERIVE without a valid trigger", seed)
				}
			case Appear:
				if len(v.Children()) > 1 {
					t.Fatalf("seed %d: APPEAR with %d causes", seed, len(v.Children()))
				}
			case Exist:
				if len(v.Children()) != 1 || g.Vertex(v.Children()[0]).Type != Appear {
					t.Fatalf("seed %d: malformed EXIST", seed)
				}
				if !v.Open && v.Span.To.Before(v.At) {
					t.Fatalf("seed %d: EXIST interval ends before it starts", seed)
				}
			case Disappear:
				if len(v.Children()) > 1 {
					t.Fatalf("seed %d: DISAPPEAR with %d causes", seed, len(v.Children()))
				}
			}
		})
		// Conservation: every DISAPPEAR closes an EXIST, so closed
		// EXISTs == DISAPPEARs, and INSERTs+DERIVEs >= APPEARs.
		closed := 0
		g.Vertexes(func(v *Vertex) {
			if v.Type == Exist && !v.Open {
				closed++
			}
		})
		if closed != counts[Disappear] {
			t.Fatalf("seed %d: %d closed EXISTs vs %d DISAPPEARs", seed, closed, counts[Disappear])
		}
		if counts[Appear] > counts[Insert]+counts[Derive] {
			t.Fatalf("seed %d: more appearances than causes", seed)
		}
	}
}

// TestTreesAreFiniteAndSeeded checks that every event appearance yields a
// projectable tree whose seed is a base INSERT.
func TestTreesAreFiniteAndSeeded(t *testing.T) {
	for seed := int64(20); seed < 30; seed++ {
		_, g := randomExecution(t, seed, 100)
		trees := 0
		g.Vertexes(func(v *Vertex) {
			if v.Type != Appear || v.Tuple.Table != "packet" {
				return
			}
			tree := g.Tree(v.ID)
			if tree.Size() <= 0 || tree.Size() > g.NumVertexes()*4 {
				t.Fatalf("seed %d: implausible tree size %d", seed, tree.Size())
			}
			s, err := tree.FindSeed()
			if err != nil {
				t.Fatalf("seed %d: FindSeed: %v", seed, err)
			}
			if s.Vertex.Type != Insert {
				t.Fatalf("seed %d: seed is %s, want INSERT", seed, s.Vertex.Type)
			}
			trees++
		})
		if trees == 0 {
			t.Fatalf("seed %d: no packet trees produced", seed)
		}
	}
}

// TestFindInTreeVisitsInTreeWalkOrder: FindInTree walks the graph in the
// preorder Tree(id).Walk visits the projected tree, so a predicate that
// holds from its k-th call on picks the walk's k-th vertex.
func TestFindInTreeVisitsInTreeWalkOrder(t *testing.T) {
	for seed := int64(20); seed < 25; seed++ {
		_, g := randomExecution(t, seed, 100)
		g.Vertexes(func(v *Vertex) {
			var walk []*Vertex
			g.Tree(v.ID).Walk(func(n *Tree) { walk = append(walk, n.Vertex) })
			for k := 0; k < len(walk) && k < 40; k++ {
				calls := 0
				got := g.FindInTree(v.ID, func(*Vertex) bool { calls++; return calls > k })
				if got != walk[k] {
					t.Fatalf("seed %d, tree of vertex %d: FindInTree's pick %d is %v, the walk's is %v", seed, v.ID, k, got, walk[k])
				}
			}
			if got := g.FindInTree(v.ID, func(*Vertex) bool { return false }); got != nil {
				t.Fatalf("seed %d: FindInTree matched %v with a predicate that never holds", seed, got)
			}
		})
	}
}

// TestReplayedGraphIdenticalToLive re-runs a random execution and checks
// the graphs match vertex for vertex (the determinism DiffProv rests on).
func TestReplayedGraphIdenticalToLive(t *testing.T) {
	for seed := int64(30); seed < 38; seed++ {
		_, g1 := randomExecution(t, seed, 80)
		_, g2 := randomExecution(t, seed, 80)
		if g1.NumVertexes() != g2.NumVertexes() {
			t.Fatalf("seed %d: vertex counts differ: %d vs %d", seed, g1.NumVertexes(), g2.NumVertexes())
		}
		for i := 0; i < g1.NumVertexes(); i++ {
			a, b := g1.Vertex(i), g2.Vertex(i)
			if a.Label() != b.Label() || a.At != b.At || a.Trigger != b.Trigger {
				t.Fatalf("seed %d: vertex %d differs: %s vs %s", seed, i, a, b)
			}
		}
	}
}

// checkExistAdjacency checks the invariant that replaced three index maps
// (existByRef, existOf, openExist): an EXIST is the vertex recorded right
// after its APPEAR. Every EXIST e must have Children == [e-1] with e-1 an
// APPEAR of the same tuple, every APPEAR of a non-event tuple must be
// followed by its EXIST, and ExistOf / openExist must agree with the maps
// the recorder used to maintain, rebuilt here by one pass over the graph.
func checkExistAdjacency(t *testing.T, what string, prog *ndlog.Program, g *Graph) {
	t.Helper()
	existOf := map[int]int{}
	open := map[ndlog.TupleRef]int{}
	g.Vertexes(func(v *Vertex) {
		switch v.Type {
		case Exist:
			if len(v.Children()) != 1 || v.Children()[0] != v.ID-1 {
				t.Fatalf("%s: EXIST %d has children %v, want [%d]", what, v.ID, v.Children(), v.ID-1)
			}
			ap := g.Vertex(v.ID - 1)
			if ap.Type != Appear || ap.TupleRef() != v.TupleRef() || ap.At != v.At {
				t.Fatalf("%s: EXIST %d follows %s, not its own APPEAR", what, v.ID, ap)
			}
			existOf[ap.ID] = v.ID
			if v.Open {
				open[v.TupleRef()] = v.ID
			}
		case Appear:
			if d := prog.Decl(v.Tuple.Table); d != nil && d.Event {
				return
			}
			if next := g.Vertex(v.ID + 1); next == nil || next.Type != Exist {
				t.Fatalf("%s: state APPEAR %d is not followed by its EXIST", what, v.ID)
			}
		}
	})
	g.Vertexes(func(v *Vertex) {
		want, ok := existOf[v.ID]
		if !ok {
			want = -1
		}
		if got := g.ExistOf(v.ID); got != want {
			t.Fatalf("%s: ExistOf(%d %s) = %d, rebuilt map says %d", what, v.ID, v.Type, got, want)
		}
		if v.Type != Appear {
			return
		}
		want, ok = open[v.TupleRef()]
		if !ok {
			want = -1
		}
		if got := g.openExist(v.TupleRef()); got != want {
			t.Fatalf("%s: openExist(%s) = %d, rebuilt map says %d", what, v.Tuple, got, want)
		}
	})
}

// TestExistFollowsAppear runs checkExistAdjacency over random executions
// and over a fork of each that deletes and re-inserts inherited tuples
// (closing base EXISTs with close stamps of its own, reopening them
// locally). internal/scenarios runs the exported half over every
// scenario's base graph and trial fork.
func TestExistFollowsAppear(t *testing.T) {
	for seed := int64(40); seed < 52; seed++ {
		e, rec, inserted := randomRecorded(t, seed, 120)
		prog := rec.prog
		checkExistAdjacency(t, "root", prog, rec.Graph())
		rec.Seal()
		e.Seal()
		frec := rec.Fork()
		f := e.Fork(frec)
		for i, at := range inserted {
			tick := int64(200 + i)
			if i%2 == 0 {
				if err := f.ScheduleDelete(at.Node, at.Tuple, tick); err != nil {
					t.Fatal(err)
				}
			}
			if i%4 == 0 {
				if err := f.ScheduleInsert(at.Node, at.Tuple, tick+100); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		if frec.Graph().NumVertexes() == rec.Graph().NumVertexes() {
			t.Fatalf("seed %d: the fork recorded nothing", seed)
		}
		checkExistAdjacency(t, "fork", prog, frec.Graph())
		checkExistAdjacency(t, "base after fork", prog, rec.Graph())
	}
}

// TestVertexPointersSurviveGrowth pins the cache's contract: a *Vertex
// taken from a graph keeps addressing that vertex however much the graph
// (or a fork of it) grows afterwards — record and cache chunks are never
// reallocated, and a read synthesises a vertex once.
func TestVertexPointersSurviveGrowth(t *testing.T) {
	prog := ndlog.MustParse(`table a/1 base mutable;`)
	grow := func(rec *Recorder, from, n int) {
		for i := from; i < from+n; i++ {
			tu := ndlog.NewTuple("a", ndlog.Int(int64(i)))
			at := ndlog.KeyedAt{At: ndlog.At{Node: "n", Tuple: tu, Stamp: ndlog.Stamp{T: int64(i), Seq: uint64(i + 1)}}, Key: tu.Key()}
			rec.OnBaseInsert(at)
			rec.OnAppear(at, 0)
		}
	}
	held := func(g *Graph) []*Vertex {
		var ptrs []*Vertex
		for id := 0; id < g.NumVertexes(); id++ {
			ptrs = append(ptrs, g.Vertex(id))
		}
		return ptrs
	}
	check := func(what string, g *Graph, ptrs []*Vertex) {
		t.Helper()
		for id, p := range ptrs {
			if g.Vertex(id) != p || p.ID != id {
				t.Fatalf("%s: vertex %d moved: held %p (ID %d), graph has %p", what, id, p, p.ID, g.Vertex(id))
			}
		}
	}
	rec := NewRecorder(prog)
	grow(rec, 0, 100) // 300 vertexes: INSERT, APPEAR, EXIST each
	ptrs := held(rec.Graph())
	grow(rec, 100, 3400) // 10 200 further adds
	check("root", rec.Graph(), ptrs)

	rec.Seal()
	frec := rec.Fork()
	grow(frec, 3500, 10)
	fptrs := held(frec.Graph())
	grow(frec, 3510, 3400)
	check("fork", frec.Graph(), fptrs)
	check("base under the fork", rec.Graph(), ptrs)
}

// TestChildrenAppendDoesNotScribble: Children are windows into one shared
// arena, clipped to their length — a consumer's append must reallocate,
// not overwrite the children of the vertex recorded next.
func TestChildrenAppendDoesNotScribble(t *testing.T) {
	_, g := runFwd(t)
	var before [][]int
	g.Vertexes(func(v *Vertex) { before = append(before, append([]int(nil), v.Children()...)) })
	g.Vertexes(func(v *Vertex) {
		_ = append(v.Children(), -7)
		_ = append(g.ChildrenOf(v.ID), -7)
	})
	g.Vertexes(func(v *Vertex) {
		if len(v.Children()) != len(before[v.ID]) {
			t.Fatalf("vertex %d: %d children, had %d", v.ID, len(v.Children()), len(before[v.ID]))
		}
		for i, c := range v.Children() {
			if c != before[v.ID][i] {
				t.Fatalf("vertex %d child %d overwritten: %d, was %d", v.ID, i, c, before[v.ID][i])
			}
		}
	})
	// The folded view of an aggregate chain is as safe as a recorded list.
	wc := runWordCount(t, 9)
	head := aggHeadDerive(t, wc, "the", 3)
	folded := append([]int(nil), wc.ChildrenOf(head.ID)...)
	_ = append(wc.ChildrenOf(head.ID), -7)
	for i, c := range wc.ChildrenOf(head.ID) {
		if c != folded[i] {
			t.Fatalf("folded child %d overwritten: %d, was %d", i, c, folded[i])
		}
	}
}

// TestDeriveIndexAcrossForks exercises the dense derivation index where
// it is not dense: IDs reported out of order, an ID below a fork's first
// (a derivation in flight when the base was sealed), holes, and
// underivation IDs (the same counter), all resolved from the top of a
// two-deep fork chain.
func TestDeriveIndexAcrossForks(t *testing.T) {
	prog := ndlog.MustParse(`
table a/1 base;
table h/1;
rule r h(@N, X) :- a(@N, X).
`)
	seq := uint64(0)
	keyed := func(tu ndlog.Tuple) ndlog.KeyedAt {
		seq++
		return ndlog.KeyedAt{At: ndlog.At{Node: "n", Tuple: tu, Stamp: ndlog.Stamp{T: 1, Seq: seq}}, Key: tu.Key()}
	}
	want := map[int64]int{}
	derive := func(rec *Recorder, id int64) {
		rec.OnDerive(ndlog.Derivation{ID: id, Rule: "r", Node: "n", Head: keyed(ndlog.NewTuple("h", ndlog.Int(id)))})
		want[id] = rec.Graph().NumVertexes() - 1
	}
	underive := func(rec *Recorder, id int64) {
		rec.OnUnderive(ndlog.Underivation{ID: id, Rule: "r", Node: "n", Head: keyed(ndlog.NewTuple("h", ndlog.Int(id)))})
		want[id] = rec.Graph().NumVertexes() - 1
	}
	root := NewRecorder(prog)
	derive(root, 5) // a recorder attached mid-run: its index starts at the first ID it is told
	derive(root, 7)
	derive(root, 6) // out of order, into the hole
	derive(root, 2) // below the first
	root.Seal()
	mid := root.Fork()
	derive(mid, 9)
	derive(mid, 4) // in flight when root was sealed
	underive(mid, 10)
	mid.Seal()
	top := mid.Fork()
	derive(top, 12)
	underive(top, 8) // below top's first, inside mid's range where mid recorded none
	for _, id := range []int64{2, 4, 5, 6, 7, 8, 9, 10, 12} {
		got, ok := top.Graph().deriveVertex(id)
		if !ok || got != want[id] {
			t.Errorf("deriveVertex(%d) = %d, %v from the top fork; recorded as vertex %d", id, got, ok, want[id])
		}
	}
	for _, id := range []int64{1, 3, 11, 13} {
		if got, ok := top.Graph().deriveVertex(id); ok {
			t.Errorf("deriveVertex(%d) = %d for an ID nobody reported", id, got)
		}
	}
	// A base does not see what its forks recorded.
	for _, id := range []int64{4, 9, 10} {
		if _, ok := root.Graph().deriveVertex(id); ok {
			t.Errorf("the sealed root resolves ID %d, recorded by its fork", id)
		}
	}
	if v := top.Graph().Vertex(want[8]); v.Type != Underive {
		t.Errorf("ID 8 resolves to a %s vertex, want UNDERIVE", v.Type)
	}
}

// TestLocateWalksTheChunkPlan walks a slab slot by slot — through the
// first chunk, the doubling ones and well into the capped ones — and
// requires locate to fill each chunk of the plan (8, 8, 16, 32, …, 512,
// 512, …) exactly before it opens the next.
func TestLocateWalksTheChunkPlan(t *testing.T) {
	i := 0
	for c := 0; c < 40; c++ {
		want := chunkMin
		if c > 0 {
			want = min(chunkMin<<(c-1), chunkMax)
		}
		for slot := 0; slot < want; slot++ {
			if gc, gs, size := locate(i); gc != c || gs != slot || size != want {
				t.Fatalf("locate(%d) = chunk %d slot %d of %d, want chunk %d slot %d of %d", i, gc, gs, size, c, slot, want)
			}
			i++
		}
	}
}

// TestRecordSizes pins the three record kinds a graph stores — a slab
// chunk's unused slots cost what a record does, so none may quietly grow.
// A derivation is 72 bytes: the label and rule-name pointers 16; At 16;
// the children pointer 8; fp 8; the five int32s trigger, aggCount, prev,
// up and older 20; nkids 1, padded to 8 (an aggregate link's
// contributor is its recorded child, not a field). An underivation is 48:
// the label and rule-name pointers 16; At 16; fp 8; its one cause, an
// int32, padded to 8 — an UNDERIVE took a 72-byte derivation and a word
// of the children arena. An appearance is 80: the label pointer 8; the
// stamps at and to 32; the APPEAR and EXIST fingerprints 16; the five
// int32s cause, endCause, prev, apUp and exUp 20; parts 1, padded to 8. A
// derivation and an underivation stand for one vertex and an appearance
// for up to five, where a vertex slot was 112 bytes.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(derivation{}); got > 72 {
		t.Errorf("unsafe.Sizeof(derivation{}) = %d, want <= 72", got)
	}
	if got := unsafe.Sizeof(underivation{}); got > 48 {
		t.Errorf("unsafe.Sizeof(underivation{}) = %d, want <= 48", got)
	}
	if got := unsafe.Sizeof(appearance{}); got > 80 {
		t.Errorf("unsafe.Sizeof(appearance{}) = %d, want <= 80", got)
	}
}
