package ndlog

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
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

// owners records which engine holds each work item, and reports an item
// two engines hold at once.
type owners struct {
	t  *testing.T
	of map[*workItem]string
}

func (o *owners) claim(who string, it *workItem) {
	o.t.Helper()
	if prev, ok := o.of[it]; ok && prev != who {
		o.t.Errorf("a work item of %s is also %s's", who, prev)
	}
	o.of[it] = who
}

// claimSet claims the items on a scratch set's free lists and, while it is
// spare, its queue array.
func (o *owners) claimSet(who string, w *scratch) {
	o.t.Helper()
	if w == nil {
		return
	}
	for _, free := range []*workItem{w.freeBase, w.freeDelivery} {
		for it := free; it != nil; it = it.next {
			o.claim(who, it)
		}
	}
	for _, it := range w.queue {
		o.claim(who, it)
	}
}

// claimAll claims what each engine holds — its queue and its scratch — and
// the spare sets of base.
func claimAll(t *testing.T, base *Engine, engines map[string]*Engine) *owners {
	t.Helper()
	o := &owners{t: t, of: map[*workItem]string{}}
	for who, e := range engines {
		for _, it := range e.queue {
			o.claim(who, it)
		}
		o.claimSet(who, e.work)
	}
	for i, w := range base.spareSets() {
		o.claimSet(fmt.Sprintf("spare %d", i), w)
	}
	return o
}

// TestForkedWorkItemsArePrivateAndPoisoned: a fork copies its base's
// pending work into items of its own, a settled fork hands its items to
// its base for the next fork, and no work item is ever on two engines'
// queues or free lists at once — across sequential forks of one base and
// concurrent ones. Every item on a free list is marked wkFree, which
// process refuses.
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
	if len(e.queue) == 0 || e.work == nil || e.work.freeBase == nil || e.work.freeDelivery == nil {
		t.Fatalf("the cut left %d pending items and scratch %+v; want both free lists and pending work", len(e.queue), e.work)
	}
	claimAll(t, e, map[string]*Engine{"the base": e})
	e.Seal()

	// Sequential: each fork takes the set the one before it handed on.
	engines := map[string]*Engine{"the base": e}
	for i := 0; i < 3; i++ {
		who := fmt.Sprintf("fork %d", i)
		f := e.Fork(nil)
		engines[who] = f
		claimAll(t, e, engines)
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		if f.work != nil || len(e.spareSets()) != 1 {
			t.Fatalf("%s settled holding scratch %p, and its base has %d spare sets; want none and 1", who, f.work, len(e.spareSets()))
		}
		claimAll(t, e, engines)
	}

	// Concurrent: one fork takes the spare set, the others make their own.
	// All n are forked before any runs, so none can settle and hand its set
	// on to a later fork.
	const n = 4
	forks := make([]*Engine, n)
	for i := range forks {
		forks[i] = e.Fork(nil)
		engines[fmt.Sprintf("concurrent fork %d", i)] = forks[i]
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f.Run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(e.spareSets()) != n {
		t.Errorf("%d forks evaluated at once and the base holds %d spare sets; want %d", n, len(e.spareSets()), n)
	}
	claimAll(t, e, engines)

	for i, w := range e.spareSets() {
		who := fmt.Sprintf("spare %d", i)
		for shape, free := range map[string]*workItem{"base event": w.freeBase, "delivery": w.freeDelivery} {
			if free == nil {
				t.Errorf("%s holds no %s item", who, shape)
			}
			for it := free; it != nil; it = it.next {
				if it.kind != wkFree {
					t.Errorf("%s: a recycled %s item has kind %d, want wkFree", who, shape, it.kind)
				}
				if (it.deriv != nil) != (shape == "delivery") {
					t.Errorf("%s: a %s item on the wrong free list", who, shape)
				}
			}
		}
		if err := e.process(w.freeDelivery); err == nil {
			t.Errorf("%s: process ran a recycled work item", who)
		}
	}
}

// TestSettledForkHandsItsWorkItemsOn: the second sequential fork of a base,
// given the same trial, evaluates in the first one's scratch and makes no
// work item of its own; two concurrent forks hold disjoint items. Nothing a
// settled fork keeps points into the join stacks it handed on: overwriting
// them leaves its rows, supports and state as they were.
func TestSettledForkHandsItsWorkItemsOn(t *testing.T) {
	base := New(frozenProg, nil, WithSeqBand(SeqBandDefault))
	for _, w := range []struct {
		node string
		tu   Tuple
	}{{"a", link("a", "b")}, {"b", link("b", "c")}, {"n", cfg("k", "v")}, {"n", prio(1)}, {"n", prio(5)}} {
		if err := base.ScheduleInsert(w.node, w.tu, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	base.Seal()
	// trial schedules one of every kind of write and runs the fork.
	trial := func(f *Engine) error {
		for _, w := range []struct {
			insert bool
			node   string
			tu     Tuple
			tick   int64
		}{
			{true, "c", link("c", "d"), 2},
			{true, "n", prio(9), 2},
			{true, "n", NewTuple("probe", Str("k")), 3},
			{false, "a", link("a", "b"), 4},
		} {
			var err error
			if w.insert {
				err = f.ScheduleInsert(w.node, w.tu, w.tick)
			} else {
				err = f.ScheduleDelete(w.node, w.tu, w.tick)
			}
			if err != nil {
				return err
			}
		}
		return f.Run()
	}
	items := func(w *scratch) map[*workItem]bool {
		out := map[*workItem]bool{}
		for _, free := range []*workItem{w.freeBase, w.freeDelivery} {
			for it := free; it != nil; it = it.next {
				out[it] = true
			}
		}
		return out
	}

	first := base.Fork(nil)
	if err := trial(first); err != nil {
		t.Fatal(err)
	}
	if first.work != nil || len(base.spareSets()) != 1 {
		t.Fatalf("the settled fork holds scratch %p and the base %d spare sets; want none and 1", first.work, len(base.spareSets()))
	}
	set := base.spareSets()[0]
	made := items(set)
	if len(made) == 0 {
		t.Fatal("the trial recycled no work item")
	}

	// Overwrite every slot of the join's stacks, then put them back in the
	// state a firing expects (an unbound frame, empty stacks).
	kept := rowDigest(first) + fmt.Sprint(first.CaptureState())
	j := &set.join
	poison := Str("poison")
	for _, s := range [][]Value{j.frame[:cap(j.frame)], j.frames[:cap(j.frames)]} {
		for i := range s {
			s[i] = poison
		}
	}
	for i, b := range j.bodies[:cap(j.bodies)] {
		b.Node, b.Tuple = "poison", NewTuple("poison")
		j.bodies[:cap(j.bodies)][i] = b
	}
	for i := range j.body[:cap(j.body)] {
		j.body[:cap(j.body)][i] = KeyedAt{At: At{Node: "poison"}, Key: "poison"}
	}
	if got := rowDigest(first) + fmt.Sprint(first.CaptureState()); got != kept {
		t.Errorf("overwriting the handed-on join stacks changed the settled fork:\nbefore:\n%s\nafter:\n%s", kept, got)
	}
	clear(j.frame[:cap(j.frame)])
	clear(j.frames[:cap(j.frames)])
	clear(j.bodies[:cap(j.bodies)])

	second := base.Fork(nil)
	if second.work != set || len(base.spareSets()) != 0 {
		t.Fatalf("the second fork evaluates in %p, not the handed-on set %p", second.work, set)
	}
	if err := trial(second); err != nil {
		t.Fatal(err)
	}
	if second.work != nil || len(base.spareSets()) != 1 || base.spareSets()[0] != set {
		t.Fatalf("the second fork did not hand the set back")
	}
	claimAll(t, base, map[string]*Engine{"the first fork": first, "the second fork": second})
	for it := range items(set) {
		if !made[it] {
			t.Errorf("the second fork made work item %p; want every item the first one's", it)
		}
	}
	if a, b := fmt.Sprint(first.CaptureState()), fmt.Sprint(second.CaptureState()); a != b {
		t.Errorf("the second fork's state differs from the first's:\n%s\n%s", a, b)
	}

	// Concurrent: one takes the set, the other makes its own.
	g := []*Engine{base.Fork(nil), base.Fork(nil)}
	var wg sync.WaitGroup
	errs := make([]error, len(g))
	for i, f := range g {
		wg.Add(1)
		go func(i int, f *Engine) {
			defer wg.Done()
			errs[i] = trial(f)
		}(i, f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(base.spareSets()) != 2 {
		t.Fatalf("two concurrent forks settled and the base holds %d spare sets; want 2", len(base.spareSets()))
	}
	claimAll(t, base, map[string]*Engine{"the first fork": first, "the second fork": second, "concurrent fork 0": g[0], "concurrent fork 1": g[1]})
	for _, f := range g {
		if f.work != nil {
			t.Errorf("a settled concurrent fork kept scratch %p", f.work)
		}
	}
}

// spareSets lists the scratch sets on the engine's spare stack, top first.
func (e *Engine) spareSets() []*scratch {
	var out []*scratch
	for w := e.spares; w != nil; w = w.next {
		out = append(out, w)
	}
	return out
}

// deriveCounter counts the derivations an engine reports.
type deriveCounter struct {
	NopObserver
	derives int
}

func (o *deriveCounter) OnDerive(Derivation) { o.derives++ }

// TestOutOfDemandDerivationAllocatesNothing: a state row inserted in a
// trial's evaluated past re-fires every later occurrence of its rule's
// trigger atom (refireForRow). Under a demand those whose heads all fall
// outside it are passed over on their own row: re-firing 500 of them costs a
// demand trial no allocation beyond what it costs with one, and records no
// derivation — where the full trial records 500.
func TestOutOfDemandDerivationAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	prog := MustParse(`
table ev/1 event base;
table cfg/1 base mutable;
table out/1 event;
rule o out(@N, X) :- ev(@N, X), cfg(@N, 1).
`)
	d := NewDemand(prog, NewTuple("ev", Int(0)))
	if !d.Narrow() || d.Covers(NewTuple("out", Int(1))) || !d.Covers(NewTuple("out", Int(0))) {
		t.Fatalf("the demand of ev(0) does not bind out to 0")
	}
	trial := func(n int, d *Demand) (allocs float64, derives int) {
		e := New(prog, nil, WithSeqBand(SeqBandDefault))
		for i := 1; i <= n; i++ {
			if err := e.ScheduleInsert("n", NewTuple("ev", Int(int64(i))), int64(10+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Seal()
		obs := new(deriveCounter)
		run := func() {
			f := e.ForkDemand(obs, d)
			if err := f.ScheduleInsert("n", NewTuple("cfg", Int(1)), 5); err != nil {
				t.Fatal(err)
			}
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
		}
		run() // hands a spare scratch on to the measured forks
		obs.derives = 0
		allocs = testing.AllocsPerRun(20, run)
		return allocs, obs.derives / 21
	}
	if _, derives := trial(500, nil); derives != 500 {
		t.Fatalf("the full trial records %d derivations, want 500", derives)
	}
	one, _ := trial(1, &d)
	allocs, derives := trial(500, &d)
	if derives != 0 {
		t.Errorf("the demand trial records %d derivations, want 0", derives)
	}
	if allocs != one {
		t.Errorf("re-firing 500 occurrences outside the demand: %.0f allocations per trial, %.0f with one", allocs, one)
	}
}
