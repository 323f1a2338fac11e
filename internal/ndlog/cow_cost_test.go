package ndlog

import (
	"fmt"
	"runtime"
	"testing"
)

// costProg's join probes t on its first column, so t carries an index on
// it; nothing fires unless a probe arrives.
var costProg = MustParse(`
table t/2 base mutable;
table probe/1 event base;
table hit/2 event;
rule j hit(K, V) :- probe(@n, K), t(@n, K, V).
`)

// sealedRun runs the inserts on a fresh engine and seals it.
func sealedRun(t *testing.T, insert func(e *Engine) error) *Engine {
	t.Helper()
	e := New(costProg, nil, WithSeqBand(SeqBandDefault))
	if err := insert(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Seal()
	return e
}

// TestForkCostIsIndependentOfNodes: Fork shares the base's node and table
// maps through overlay links, so forking a sealed engine of 64 nodes costs
// what forking one of 4 does — the fork's Engine and little else.
func TestForkCostIsIndependentOfNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	forkCost := func(nodes int) float64 {
		e := sealedRun(t, func(e *Engine) error {
			for i := 0; i < nodes; i++ {
				if err := e.ScheduleInsert(fmt.Sprintf("n%d", i), NewTuple("t", Int(1), Int(int64(i))), 1); err != nil {
					return err
				}
			}
			return nil
		})
		if got := len(e.Nodes()); got != nodes {
			t.Fatalf("sealed run has %d nodes, want %d", got, nodes)
		}
		return testing.AllocsPerRun(50, func() { e.Fork(nil) })
	}
	small, big := forkCost(4), forkCost(64)
	t.Logf("Fork: %.0f allocations at 4 nodes, %.0f at 64", small, big)
	if small != big || big > 5 {
		t.Errorf("Fork allocates %.0f at 64 nodes and %.0f at 4; want the same count, at most 5", big, small)
	}
}

// TestTableCloneCostIsIndependentOfBuckets: a fork's first write to a
// sealed table clones it, and the clone's index buckets are an overlay link
// over the frozen table's, not copies — so with the same 256 rows in one
// bucket or in 256, the write costs the same number of allocations.
func TestTableCloneCostIsIndependentOfBuckets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	writeCost := func(keys int) float64 {
		e := sealedRun(t, func(e *Engine) error {
			for i := 0; i < 256; i++ {
				if err := e.ScheduleInsert("n", NewTuple("t", Int(int64(i%keys)), Int(int64(i))), 1); err != nil {
					return err
				}
			}
			return nil
		})
		tb := e.table("n", "t")
		if len(tb.indexes) != 1 {
			t.Fatalf("t carries %d indexes, want 1", len(tb.indexes))
		}
		buckets := map[uint64]bool{}
		for _, r := range tb.order {
			buckets[tb.indexes[0].bucketOf(r.tuple)] = true
		}
		if len(buckets) != keys {
			t.Fatalf("the index has %d buckets, want %d", len(buckets), keys)
		}
		// Each run writes to a fresh fork, so each write is a first write:
		// the row joins key 0's bucket, the one every row shares at keys 1.
		row := NewTuple("t", Int(0), Int(1000))
		return testing.AllocsPerRun(50, func() {
			f := e.Fork(nil)
			if err := f.ScheduleInsert("n", row, 2); err != nil {
				t.Fatal(err)
			}
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
			if f.table("n", "t") == tb {
				t.Fatal("the fork wrote t without cloning it")
			}
		})
	}
	one, many := writeCost(1), writeCost(256)
	t.Logf("fork and first write: %.0f allocations with 1 bucket, %.0f with 256", one, many)
	if one != many {
		t.Errorf("the first write to a sealed table allocates %.0f with 256 index buckets and %.0f with 1; want the same", many, one)
	}
}

// TestTableCloneCostIsIndependentOfRows: a fork's first write to a sealed
// table pays for what it writes, not for the rows the table ever held. With
// 16 rows or 4 096 behind it (half of them dead), forking and inserting a
// new key, or forking and retracting a base row, costs the same number of
// allocations, and the large table at most a pointer per extra row (the
// shared row pointers a clone copies before it writes a shared row) and
// 1 KB more bytes.
func TestTableCloneCostIsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sealed := func(rows int) *Engine {
		return sealedRun(t, func(e *Engine) error {
			for i := 0; i < rows; i++ {
				if err := e.ScheduleInsert("n", NewTuple("t", Int(int64(i)), Int(int64(i))), 1); err != nil {
					return err
				}
			}
			for i := 0; i < rows; i += 2 {
				if err := e.ScheduleDelete("n", NewTuple("t", Int(int64(i)), Int(int64(i))), 2); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// cost forks e and makes one write per run, each a first write to t.
	cost := func(e *Engine, write func(f *Engine) error) (allocs, bytes float64) {
		const runs = 50
		run := func() {
			f := e.Fork(nil)
			if err := write(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
			if f.table("n", "t") == e.table("n", "t") {
				t.Fatal("the fork wrote t without cloning it")
			}
		}
		run()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		// Whole allocations per run, as testing.AllocsPerRun counts them: a
		// pool refilled after a collection is not the write's.
		return float64((m1.Mallocs - m0.Mallocs) / runs), float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	small, big := sealed(16), sealed(4096)
	if tb := big.table("n", "t"); tb.size() != 4096 || len(big.LiveTuples("n", "t")) != 2048 {
		t.Fatalf("the large table holds %d rows, %d live; want 4096, 2048", tb.size(), len(big.LiveTuples("n", "t")))
	}
	for _, w := range []struct {
		name  string
		write func(f *Engine) error
	}{
		{"insert a new key", func(f *Engine) error { return f.ScheduleInsert("n", NewTuple("t", Int(-1), Int(-1)), 3) }},
		{"retract a base row", func(f *Engine) error { return f.ScheduleDelete("n", NewTuple("t", Int(1), Int(1)), 3) }},
	} {
		sa, sb := cost(small, w.write)
		ba, bb := cost(big, w.write)
		t.Logf("%s: %.0f allocations, %.0f B at 16 rows; %.0f, %.0f B at 4096", w.name, sa, sb, ba, bb)
		if ba != sa {
			t.Errorf("%s: %.0f allocations at 4096 rows, %.0f at 16; want the same", w.name, ba, sa)
		}
		if limit := sb + 8*(4096-16) + 1024; bb > limit {
			t.Errorf("%s: %.0f B at 4096 rows, %.0f at 16; want at most %.0f", w.name, bb, sb, limit)
		}
	}
}

// TestForkedWorkItemsArePrivateAndPoisoned: a fork copies its base's
// pending work into items of its own, and drain puts every item it has
// processed on the engine's free list marked wkFree, which process refuses.
// Two forks of a half-run engine, each drained, share no item with the base
// or with each other.
func TestForkedWorkItemsArePrivateAndPoisoned(t *testing.T) {
	prog := MustParse(`
table link/2 base mutable;
table reach/2;
rule direct reach(@S, S, D) :- link(@S, S, D).
rule trans reach(@S, S, D) :- link(@S, S, M), reach(@M, M, D).
`)
	e := New(prog, nil, WithSeqBand(SeqBandDefault))
	for i, l := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}} {
		if err := e.ScheduleInsert(l[0], NewTuple("link", Str(l[0]), Str(l[1])), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	owner := map[*workItem]string{}
	claim := func(who string, it *workItem) {
		if prev, ok := owner[it]; ok && prev != who {
			t.Errorf("a work item of %s is also %s's", who, prev)
		}
		owner[it] = who
	}
	for _, free := range []*workItem{e.freeBase, e.freeDelivery} {
		for it := free; it != nil; it = it.next {
			claim("the base", it)
		}
	}
	for _, it := range e.queue {
		claim("the base", it)
	}
	if len(e.queue) == 0 || e.freeBase == nil || e.freeDelivery == nil {
		t.Fatalf("the cut left %d pending items and free lists %p, %p; want all three", len(e.queue), e.freeBase, e.freeDelivery)
	}
	e.Seal()
	forks := []*Engine{e.Fork(nil), e.Fork(nil)}
	for i, f := range forks {
		who := fmt.Sprintf("fork %d", i)
		for _, it := range f.queue {
			claim(who, it)
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		for shape, free := range map[string]*workItem{"base event": f.freeBase, "delivery": f.freeDelivery} {
			if free == nil {
				t.Errorf("%s recycled no %s item", who, shape)
			}
			for it := free; it != nil; it = it.next {
				claim(who, it)
				if it.kind != wkFree {
					t.Errorf("%s: a recycled %s item has kind %d, want wkFree", who, shape, it.kind)
				}
				if (it.deriv != nil) != (shape == "delivery") {
					t.Errorf("%s: a %s item on the wrong free list", who, shape)
				}
			}
		}
		if err := f.process(f.freeDelivery); err == nil {
			t.Errorf("%s: process ran a recycled work item", who)
		}
	}
}
