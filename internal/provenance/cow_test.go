package provenance

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/ndlog"
)

// cowSerialize renders every vertex of a graph, ID first, so two graphs
// compare byte-identical exactly when their vertexes are identical.
func cowSerialize(g *Graph) string {
	var sb strings.Builder
	g.Vertexes(func(v *Vertex) {
		fmt.Fprintf(&sb, "%d %s trig=%d kids=%v\n", v.ID, v.String(), v.Trigger, v.Children())
	})
	return sb.String()
}

// TestGraphSealedRejectsRecord pins the seal contract at the graph layer:
// recording into a sealed graph is a bug (it would corrupt every live
// fork sharing its records) and must panic, not silently append — and
// before it writes anything.
func TestGraphSealedRejectsRecord(t *testing.T) {
	rec := NewRecorder(ndlog.MustParse(`table x/1 base;`))
	tu := ndlog.NewTuple("x", ndlog.Int(1))
	rec.OnBaseInsert(ndlog.KeyedAt{At: ndlog.At{Node: "n", Tuple: tu, Stamp: ndlog.Stamp{T: 1, Seq: 1}}, Key: tu.Key()})
	rec.Seal()
	if !rec.Sealed() {
		t.Fatal("Seal did not mark the recorder sealed")
	}
	g := rec.Graph()
	defer func() {
		if recover() == nil {
			t.Error("recording into a sealed graph did not panic")
		}
		if g.NumVertexes() != 1 || g.apps.n != 1 {
			t.Errorf("the refused record left %d vertexes and %d appearance records, want 1 and 1", g.NumVertexes(), g.apps.n)
		}
	}()
	rec.OnAppear(ndlog.KeyedAt{At: ndlog.At{Node: "n", Tuple: tu, Stamp: ndlog.Stamp{T: 1, Seq: 1}}, Key: tu.Key()}, 0)
}

// TestRecorderCoWForkLayers drives a sealed recorder through two
// generations of forks — a fork, then (sealed in turn) a fork of that
// fork, whose reads walk a two-link overlay chain — and requires every
// layer to agree with a straight-through run.
func TestRecorderCoWForkLayers(t *testing.T) {
	prog := ndlog.MustParse(`
table link/2 base mutable;
table reach/2;
rule direct reach(@S, S, D) :- link(@S, S, D).
`)
	drive := func(rec *Recorder, extra bool) *ndlog.Engine {
		e := ndlog.New(prog, rec, ndlog.WithSeqBand(ndlog.SeqBandDefault))
		if err := e.ScheduleInsert("a", ndlog.NewTuple("link", ndlog.Str("a"), ndlog.Str("b")), 0); err != nil {
			t.Fatal(err)
		}
		if err := e.ScheduleDelete("a", ndlog.NewTuple("link", ndlog.Str("a"), ndlog.Str("b")), 2); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if extra {
			if err := e.ScheduleInsert("a", ndlog.NewTuple("link", ndlog.Str("a"), ndlog.Str("c")), 4); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}

	// Straight-through references, with and without the suffix.
	refBase := NewRecorder(prog)
	drive(refBase, false)
	wantBase := cowSerialize(refBase.Graph())
	refFull := NewRecorder(prog)
	drive(refFull, true)
	wantFull := cowSerialize(refFull.Graph())

	// Prefix, sealed. The fork records the suffix (including a disappear,
	// which tombstones an open-exist entry inherited from the base).
	rec := NewRecorder(prog)
	e := drive(rec, false)
	rec.Seal()
	e.Seal()
	frec := rec.Fork()
	f := e.Fork(frec)
	if err := f.ScheduleInsert("a", ndlog.NewTuple("link", ndlog.Str("a"), ndlog.Str("c")), 4); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cowSerialize(frec.Graph()); got != wantFull {
		t.Errorf("CoW fork graph differs from straight-through:\ngot:\n%s\nwant:\n%s", got, wantFull)
	}
	if got := cowSerialize(rec.Graph()); got != wantBase {
		t.Errorf("sealed base graph perturbed by fork:\ngot:\n%s\nwant:\n%s", got, wantBase)
	}

	// A fork of the (now sealed) fork reads through both links of the
	// chain identically.
	frec.Seal()
	f.Seal()
	second := frec.Fork()
	f.Fork(second)
	if got := cowSerialize(second.Graph()); got != wantFull {
		t.Errorf("fork of a fork differs:\ngot:\n%s\nwant:\n%s", got, wantFull)
	}

	// And it still answers indexed queries — from the middle link (the
	// suffix) and from the root (the base).
	if v := second.Graph().LastAppear("a", ndlog.NewTuple("reach", ndlog.Str("a"), ndlog.Str("c"))); v == nil {
		t.Error("fork of a fork lost the first fork's appearsByTuple entries")
	}
	if v := second.Graph().LastAppear("a", ndlog.NewTuple("reach", ndlog.Str("a"), ndlog.Str("b"))); v == nil {
		t.Error("fork of a fork lost the base's appearsByTuple entries")
	}
}

// recordCycles returns a sealed two-tuple base recorder and a function
// that records, into a fork of it, one two-atom derivation whose head
// appears and disappears again — DERIVE, APPEAR, EXIST, DISAPPEAR, every
// lookup walking the overlay chain — under the next derivation ID.
func recordCycles() (base *Recorder, cycle func(rec *Recorder) (id int64)) {
	prog := ndlog.MustParse(`
table a/1 base;
table b/1 base;
table h/1;
rule r h(@N, X) :- a(@N, X), b(@N, X).
`)
	keyed := func(t ndlog.Tuple, seq uint64) ndlog.KeyedAt {
		return ndlog.KeyedAt{At: ndlog.At{Node: "n", Tuple: t, Stamp: ndlog.Stamp{T: 1, Seq: seq}}, Key: t.Key()}
	}
	base = NewRecorder(prog)
	a, b := keyed(ndlog.NewTuple("a", ndlog.Int(1)), 1), keyed(ndlog.NewTuple("b", ndlog.Int(1)), 2)
	for _, at := range []ndlog.KeyedAt{a, b} {
		base.OnBaseInsert(at)
		base.OnAppear(at, 0)
	}
	base.Seal()

	refs := []ndlog.BodyRef{{Node: "n", Key: a.Key, Seq: 1}, {Node: "n", Key: b.Key, Seq: 2}}
	up, down := keyed(ndlog.NewTuple("h", ndlog.Int(1)), 0), keyed(ndlog.NewTuple("h", ndlog.Int(1)), 0)
	seq, id := uint64(2), int64(0)
	return base, func(rec *Recorder) int64 {
		seq, id = seq+2, id+1
		up.Stamp.Seq, down.Stamp.Seq = seq, seq+1 // the cycle itself allocates nothing
		rec.OnDerive(ndlog.Derivation{ID: id, Rule: "r", Node: "n", Head: up, Refs: refs, Trigger: 1, Trig: b.At})
		rec.OnAppear(up, id)
		rec.OnDisappear(down, 0)
		return id
	}
}

// TestRecordCycleAllocationBudget bounds what recording costs in the steady
// state: a derive+appear+disappear cycle on a fork allocates amortised slab,
// arena and index growth and nothing per vertex. After the fork's first
// cycle, which makes its index maps' first entries
// (TestNarrowForkAllocationBudget), 1 000 cycles record 1 000 derivations,
// 1 000 appearance records (an APPEAR, its EXIST and its DISAPPEAR share
// one), 1 000 ID-table elements (four vertexes each) and 2 000 children
// words, and index 1 000 derivation IDs. The plan (recordCyclePlan)
// predicts 41 allocations for them, and they make 41: for each of the
// three slabs, the chunks of 8, 16, …, 512 records (7) and the growth of
// its chunk list past the two inline headers (2); the children arena's
// blocks of 64, 128, …, 1 024 ints (5); and the derivation index's
// appends (9). An allocation per cycle more reads 1 041.
// testing.AllocsPerRun, which this test used, truncates 41 / 1 000 to 0,
// so it could not see one. It read
// 10 per cycle while every vertex was its own object with its own Children
// slice, and 29 with per-callback key building (refKey's Sprintf and
// boxing, tupleKey, a Tuple.Key per vertex label) at commit c85e625.
func TestRecordCycleAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	base, next := recordCycles()
	rec := base.Fork()
	id := next(rec)
	const cycles = 1000
	var before, after runtime.MemStats
	// The plan has no slack, and Mallocs counts the whole process: keep
	// collections out of the window, and the goroutine that ran the
	// previous test off a second processor, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		id = next(rec)
	}
	runtime.ReadMemStats(&after)
	want := recordCyclePlan(1, 1+cycles)
	got := after.Mallocs - before.Mallocs
	t.Logf("%d derive+appear+disappear cycles on a fork: %d allocations, %d planned", cycles, got, want)
	if got > uint64(want) {
		t.Errorf("%d derive+appear+disappear cycles on a fork: %d allocations, the slab chunk plan predicts %d", cycles, got, want)
	}
	// The cycles recorded what they should have: the last DERIVE has both
	// body EXISTs as children and triggered on the second.
	g := rec.Graph()
	dv, ok := g.deriveVertex(id)
	if !ok || len(g.Vertex(dv).Children()) != 2 || g.Vertex(dv).Trigger != 1 {
		t.Fatalf("last derivation recorded as %+v (found %v)", g.Vertex(dv), ok)
	}
	if g.NumVertexes() != base.Graph().NumVertexes()+4*int(id) {
		t.Errorf("%d vertexes after %d cycles over a base of %d", g.NumVertexes(), id, base.Graph().NumVertexes())
	}
}

// recordCyclePlan counts the allocations cycles from..to-1 of recordCycles
// make on a fork: each cycle takes a record of each of three slabs
// (derivations, appearances, ID-table elements), two children words and a
// derivation index entry. The slabs' chunks follow locate, their chunk
// lists and the index grow as append grows them, and the children arena's
// blocks as Graph.putKids sizes them.
func recordCyclePlan(from, to int) int {
	n := 0
	var s slab[struct{}] // zero-sized records: a push allocates only chunk-list growth
	for i := 0; i < to; i++ {
		hdr := cap(s.chunks)
		_, slot, _ := locate(i)
		s.push()
		if i >= from && slot == 0 {
			n += 3 // a chunk of each slab
			if cap(s.chunks) != hdr {
				n += 3 // each chunk list outgrew its array
			}
		}
	}
	kids, blockCap := 0, 0
	for i := 0; i < to; i++ {
		if kids+2 > blockCap {
			kids, blockCap = 0, max(2, min(2*blockCap, kidsMax), kidsMin)
			if i >= from {
				n++
			}
		}
		kids += 2
	}
	index := make([]int32, 0, 4)
	for i := 0; i < to; i++ {
		c := cap(index)
		index = append(index, 0)
		if i >= from && cap(index) != c {
			n++
		}
	}
	return n
}

// TestNarrowForkAllocationBudget bounds what a narrow counterfactual fork
// pays up front, where nothing is amortised yet: eight cycles — 32
// vertexes, what an SDN trial records — on a fresh fork. The budget is
// the last column + 2 %:
//
//	                   six index maps      links, 192 B        labels, 112 B       records
//	8 recorded cycles  28 allocs, 10 936 B  18 allocs, 9 960 B  13 allocs, 6 488 B  10 allocs, 2 672 B
//
// The store is slabs whose first chunks hold 8 records (8 derivations of
// 72 bytes, 8 appearances of 80, 32 ID-table entries; the cycles record
// no UNDERIVE, so the underivation slab makes no chunk) and whose first
// two chunk headers are the slab's own: a first chunk sized for
// a wide fork, or a chunk list made on first use, fails it. The whole
// recording adds the first group of the one index map a fork still makes
// (byTuple), the trigger overflow, the derivation index (room for four
// IDs, then eight), one label chunk (the cycles give h(1) its label once,
// and every later record of it shares that) and one children-arena block.
// With a 112-byte slot per vertex the store alone took 7 allocations and
// 5.4 KB of it.
func TestNarrowForkAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	base, next := recordCycles()
	rec := base.Fork()
	var before, after runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the budget is what the cycles read
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		next(rec)
	}
	runtime.ReadMemStats(&after)
	if got := rec.Graph().NumVertexes() - base.Graph().NumVertexes(); got != 32 {
		t.Fatalf("the fork recorded %d vertexes, want 32", got)
	}
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("8 recorded cycles: %d allocs, %d bytes", allocs, bytes)
	if allocs > 10 || bytes > 2725 {
		t.Errorf("8 cycles (32 vertexes) on a fresh fork: %d allocs, %d bytes; budget 10 allocs, 2 725 bytes", allocs, bytes)
	}
}
