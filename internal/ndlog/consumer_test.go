package ndlog

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// TestConsumerListIsChunked: filing N = 10 000 event occurrences under one
// long-lived state row — what a switch's flowEntry holds once every packet
// through the switch has joined it — copies no list: every entry stays
// where it was filed. And it allocates what the chunk plan
// (consumerChunkPlan) predicts: the chunks of 1, 2, 4, …, 64 entries, each
// chunk of 128 after them, and the slab chunks that hold full chunks'
// headers. On a fork's fresh arena that is 6, 78 and 12: 96 allocations,
// about N ÷ 100, and about the bytes the entries take. A list grown by
// append instead moves its entries at every growth, and allocates several
// times its final bytes.
func TestConsumerListIsChunked(t *testing.T) {
	p := MustParse(`
table fe/1 base;
table ev/1 event base;
table out/1 event;
rule r out(@n, X) :- ev(@n, X), fe(@n, X).
`)
	e := New(p, nil, WithSeqBand(SeqBandDefault))
	if err := e.ScheduleInsert("n", NewTuple("fe", Int(1)), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Seal()
	// A fork files under the base's row: its link's list starts empty.
	f := e.Fork(nil)
	fe := e.table("n", "fe").row(0)
	occ := &row{supports: []support{{deriveID: 1, rule: "r", body: []BodyRef{{Node: "n", Key: fe.key, Seq: fe.appearedAt.Seq}}}}}

	const n = 10000
	at := make([]*occDep, n)
	file := func(i int) {
		f.registerEventDeriv("n", occ, 0)
		c, _ := f.evDeps.Local(fe.appearedAt.Seq)
		at[i] = &c.deps[len(c.deps)-1]
	}
	file(0) // makes the link's map
	var before, after runtime.MemStats
	if !raceEnabled {
		// The plan has no slack, and Mallocs counts the whole process: keep
		// collections out of the window, and the goroutine that ran the
		// previous test off a second processor.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	runtime.ReadMemStats(&before)
	for i := 1; i < n; i++ {
		file(i)
	}
	runtime.ReadMemStats(&after)

	// Where the list holds its entries now, oldest first.
	var held []*occDep
	var walk func(c *occChunk)
	walk = func(c *occChunk) {
		if c.prev != nil {
			walk(c.prev)
		}
		for j := range c.deps {
			held = append(held, &c.deps[j])
		}
	}
	c, _ := f.evDeps.Local(fe.appearedAt.Seq)
	walk(&c)
	moved := 0
	for i := range min(len(held), n) {
		if held[i] != at[i] || held[i].occ != occ {
			moved++
		}
	}
	if len(held) != n || moved > 0 {
		t.Fatalf("%d entries filed, %d held; %d are not where they were filed", n, len(held), moved)
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	got, want := after.Mallocs-before.Mallocs, consumerChunkPlan(1, n)
	kb, limit := float64(after.TotalAlloc-before.TotalAlloc)/1024, float64((n+maxOccChunk)*int(unsafe.Sizeof(occDep{})))*9/8/1024
	t.Logf("filing %d entries under one row: %d allocations, %d planned, %.1f KB", n, got, want, kb)
	if got > uint64(want) {
		t.Errorf("filing %d entries under one row: %d allocations, the chunk plan predicts %d", n, got, want)
	}
	// The chunks hold the entries and at most one chunk's room more; an
	// eighth on top covers the headers and size-class rounding.
	if kb > limit {
		t.Errorf("filing %d entries under one row allocated %.1f KB, want at most %.1f", n, kb, limit)
	}
}

// consumerChunkPlan counts the allocations filings from..to-1 under one key
// of a fork's empty link make: the chunks registerEventDeriv asks the
// arena's entry slab for, one, two, four, … up to maxOccChunk entries, and
// the header of each chunk it fills, from the header slab, as a fresh
// slab hands them out (take).
func consumerChunkPlan(from, to int) int {
	var entries slab[occDep]
	var headers slab[occChunk]
	allocs, size, room := 0, 0, 0
	for i := 0; i < to; i++ {
		if room == 0 {
			made := 0
			if size > 0 {
				_, made = takeCounting(&headers, 1, 0)
			}
			size = min(max(2*size, 1), maxOccChunk)
			_, m := takeCounting(&entries, 0, size)
			if i >= from {
				allocs += min(made, 1) + min(m, 1)
			}
			room = size
		}
		room--
	}
	return allocs
}

// TestEventHeadWinnersWriteNoEntry: a settled engine forwarding packets
// over a chain of switches — an argmax rule deriving an event head at every
// hop, as the SDN model's fw does — writes no argmax winner entry: a
// repair finds an event head's winner filed under its trigger. A rule with
// a state head still keeps one per trigger.
func TestEventHeadWinnersWriteNoEntry(t *testing.T) {
	p := MustParse(`
table flowEntry/2 base;
table packet/2 event base;
table last/1;
rule fw packet(@Nxt, S, D) :- packet(@Sw, S, D), flowEntry(@Sw, P, Nxt), argmax P.
rule seen last(@Sw, P) :- packet(@Sw, S, D), flowEntry(@Sw, P, Nxt), argmax P.
`)
	e := New(p, nil, WithSeqBand(SeqBandDefault))
	tick := int64(0)
	insert := func(node string, tu Tuple) {
		t.Helper()
		tick++
		if err := e.ScheduleInsert(node, tu, tick); err != nil {
			t.Fatal(err)
		}
	}
	path := []string{"s1", "s2", "s3", "h"}
	for i, sw := range path[:len(path)-1] {
		insert(sw, NewTuple("flowEntry", Int(1), Str("drop")))
		insert(sw, NewTuple("flowEntry", Int(5), Str(path[i+1])))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	const packets = 500
	for i := 0; i < packets; i++ {
		insert("s1", NewTuple("packet", Int(int64(i)), Int(7)))
		if i%64 == 63 {
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fw, seen := e.compiled.rules["fw"], e.compiled.rules["seen"]
	triggers, entries := 0, 0
	for _, sw := range path[:len(path)-1] {
		tb := e.table(sw, "packet")
		for pos := 0; pos < tb.size(); pos++ {
			triggers++
			seq := tb.row(pos).appearedAt.Seq
			if _, ok := e.amDeriv.Local(amTrigger{fw.idx, seq}); ok {
				entries++
			}
			if _, ok := e.amDeriv.Local(amTrigger{seen.idx, seq}); !ok {
				t.Fatalf("%s: packet %d's state-head winner has no entry", sw, pos)
			}
		}
	}
	if triggers != 3*packets {
		t.Fatalf("%d packet occurrences on the switches, want %d", triggers, 3*packets)
	}
	if entries > 0 {
		t.Errorf("%d of %d forwarding firings wrote an argmax winner entry for their event head, want none", entries, triggers)
	}
}

// TestDisplacedWinnerInFlightIsErased: two changes to the past flip one
// argmax trigger's winner twice before the first replacement is delivered,
// since the head crosses to another node a tick later. The second
// re-evaluation finds that winner in the queue, not filed under the
// trigger, and erases it, so the fork ends with the occurrences a run
// with both changes in its log makes: the last winner's alone.
func TestDisplacedWinnerInFlightIsErased(t *testing.T) {
	p := MustParse(`
table prio/1 base mutable;
table probe/1 event base;
table out/2 event;
rule win out(@m, K, P) :- probe(@n, K), prio(@n, P), argmax P.
`)
	schedule := func(e *Engine, prios map[int64]int64) {
		t.Helper()
		for _, tick := range []int64{0, 5, 6} {
			if p, ok := prios[tick]; ok {
				if err := e.ScheduleInsert("n", NewTuple("prio", Int(p)), tick); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	occurrences := func(e *Engine) (out []int64) {
		for _, p := range []int64{1, 5, 9} {
			e.History("m", NewTuple("out", Str("k"), Int(p)), func(Interval) bool {
				out = append(out, p)
				return true
			})
		}
		return out
	}
	probe := NewTuple("probe", Str("k"))

	base := New(p, nil, WithSeqBand(SeqBandDefault))
	schedule(base, map[int64]int64{0: 1})
	if err := base.ScheduleInsert("n", probe, 10); err != nil {
		t.Fatal(err)
	}
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	base.Seal()
	f := base.Fork(nil)
	schedule(f, map[int64]int64{5: 5, 6: 9})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}

	want := New(p, nil, WithSeqBand(SeqBandDefault))
	schedule(want, map[int64]int64{0: 1, 5: 5, 6: 9})
	if err := want.ScheduleInsert("n", probe, 10); err != nil {
		t.Fatal(err)
	}
	if err := want.Run(); err != nil {
		t.Fatal(err)
	}
	if got, w := fmt.Sprint(occurrences(f)), fmt.Sprint(occurrences(want)); got != w || w != "[9]" {
		t.Errorf("the fork holds out occurrences with priorities %s, a run with the changes in its log %s; want [9]", got, w)
	}
}
