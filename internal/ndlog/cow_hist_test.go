package ndlog

import (
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
)

// Every history edit on a forked table goes through its overlay link: the
// first write to a key copies the sealed base's history, the base's own
// slice is never written, and a second edit works on the copy instead of
// copying again (which would also lose the first edit).
func TestHistEditsCopyOnFirstWrite(t *testing.T) {
	const key = "ev|i1"
	at := func(tick int64, seq uint64) Stamp { return Stamp{T: tick, Seq: seq} }
	baseHist := func() []Interval {
		return []Interval{
			{From: at(1, 1), To: at(2, 2)},
			{From: at(3, 3), To: at(3, 3)}, // an event occurrence
			{From: at(4, 4), Open: true},
		}
	}
	// The second edit every case ends with, in place on the first interval.
	second := func(h []Interval) []Interval { h[0].From = at(0, 7); return h }

	var a arena // the forking engine's; every case takes from it
	cases := []struct {
		name string
		edit func(tb *table)
		want func(h []Interval) []Interval
	}{
		{"append",
			func(tb *table) { tb.histAppend(&a, key, Interval{From: at(5, 5), To: at(5, 5)}) },
			func(h []Interval) []Interval { return append(h, Interval{From: at(5, 5), To: at(5, 5)}) }},
		{"close-last",
			func(tb *table) { tb.histCloseLast(&a, key, at(6, 6)) },
			func(h []Interval) []Interval { h[2].To, h[2].Open = at(6, 6), false; return h }},
		{"backdate",
			func(tb *table) { tb.histBackdateFrom(&a, key, 4, at(3, 9)) },
			func(h []Interval) []Interval { h[2].From = at(3, 9); return h }},
		{"close-at",
			func(tb *table) { tb.histCloseAt(&a, key, 4, at(5, 1)) },
			func(h []Interval) []Interval { h[2].To, h[2].Open = at(5, 1), false; return h }},
		{"remove-occurrence",
			func(tb *table) { tb.histRemoveOcc(&a, key, 3) },
			func(h []Interval) []Interval { return append(h[:1], h[2:]...) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := &table{decl: &TableDecl{Name: "ev"}}
			base.hist.Set(key, baseHist())
			ft := forkTable(base, nil)

			c.edit(ft)
			if got, want := ft.hist.Get(key), c.want(baseHist()); !reflect.DeepEqual(got, want) {
				t.Fatalf("after the edit: %v, want %v", got, want)
			}
			owned := &ft.hist.Get(key)[0]
			ft.histBackdateFrom(&a, key, 1, at(0, 7))
			if &ft.hist.Get(key)[0] != owned {
				t.Error("second edit copied the history again")
			}
			if got, want := ft.hist.Get(key), second(c.want(baseHist())); !reflect.DeepEqual(got, want) {
				t.Errorf("after both edits: %v, want %v", got, want)
			}
			if got := base.hist.Get(key); !reflect.DeepEqual(got, baseHist()) {
				t.Errorf("sealed base history written: %v", got)
			}
		})
	}
}

// TestForkedRowsDoNotAliasSupports: a forked table's rows are copies by
// value, and a copy's supports are spliced in place when one is retracted —
// so the copy must own them, in a window clipped to them. Retracting a
// support on the fork's row, then appending two, leaves the sealed base
// row's supports, and the next row's in the fork, as they were.
func TestForkedRowsDoNotAliasSupports(t *testing.T) {
	p := MustParse(`
table a/1 base mutable;
table b/1 base mutable;
table c/1 base mutable;
table d/1;
rule ra d(X) :- a(X).
rule rb d(X) :- b(X).
rule rc d(X) :- c(X).
`)
	e := New(p, nil, WithSeqBand(SeqBandDefault))
	for x := int64(1); x <= 2; x++ {
		for _, tb := range []string{"a", "b"} {
			if err := e.ScheduleInsert("n", NewTuple(tb, Int(x)), x); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Seal()
	rules := func(en *Engine, key string) (out []string) {
		for _, s := range en.table("n", "d").liveRow(key).supports {
			out = append(out, s.rule)
		}
		return out
	}
	both := []string{"ra", "rb"}
	if got := rules(e, "d|i1"); !reflect.DeepEqual(got, both) {
		t.Fatalf("base d(1) supported by %v, want %v", got, both)
	}

	f := e.Fork(nil)
	// Retract ra's support of d(1) (a splice inside the copy's window), give
	// it back, and add a third (an append past the window's end, where d(2)'s
	// supports begin).
	if err := f.ScheduleDelete("n", NewTuple("a", Int(1)), 3); err != nil {
		t.Fatal(err)
	}
	for i, tb := range []string{"a", "c"} {
		if err := f.ScheduleInsert("n", NewTuple(tb, Int(1)), int64(4+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if f.table("n", "d") == e.table("n", "d") {
		t.Fatal("the fork never cloned table d")
	}
	if got, want := rules(f, "d|i1"), []string{"rb", "ra", "rc"}; !reflect.DeepEqual(got, want) {
		t.Errorf("fork d(1) supported by %v, want %v", got, want)
	}
	if got := rules(f, "d|i2"); !reflect.DeepEqual(got, both) {
		t.Errorf("fork d(2) supported by %v after its neighbour was edited, want %v", got, both)
	}
	for _, key := range []string{"d|i1", "d|i2"} {
		if got := rules(e, key); !reflect.DeepEqual(got, both) {
			t.Errorf("sealed base %s supported by %v after the fork's edits, want %v", key, got, both)
		}
	}
}

// TestKeyByteLookupsBuildNoString: the lookups that hold a tuple's key as
// bytes — Engine.histOf (under Exists) and aggGroupFor — index
// each overlay link's map with m[string(b)], which builds no string, on a
// fork two links above the root and for keys longer than the 32 bytes Go
// converts on the stack.
func TestKeyByteLookupsBuildNoString(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled buffers are re-allocated at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the key buffer pool
	p := MustParse(wcProgram)
	word := Str(strings.Repeat("w", 40))
	kv, count := NewTuple("kv", word, Int(0)), NewTuple("wordcount", word, Int(1))
	e := New(p, nil, WithSeqBand(SeqBandDefault))
	if err := e.ScheduleInsert("r1", kv, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Seal()
	mid := e.Fork(nil)
	mid.Seal()
	top := mid.Fork(nil)
	var group []byte // the one group's key, as groupKey encodes it
	e.aggGroups.Find(func(m map[string]*aggGroup) (*aggGroup, bool) {
		for k := range m {
			group = []byte(k)
		}
		return nil, true
	})
	if len(group) <= 32 {
		t.Fatalf("group key %q fits Go's stack buffer", group)
	}
	if top.aggGroupFor(group).count != 1 {
		t.Fatal("the fork's first access did not copy the base's group")
	}
	ok := true
	for name, lookup := range map[string]func(){
		"Exists":      func() { ok = ok && top.Exists("r1", count, top.Now()) },
		"aggGroupFor": func() { ok = ok && top.aggGroupFor(group).count == 1 },
	} {
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("%s: %.0f allocs, want 0", name, n)
		}
	}
	if !ok {
		t.Error("a lookup read the wrong answer")
	}
}
