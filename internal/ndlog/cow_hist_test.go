package ndlog

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
)

// historyOf collects a tuple's existence intervals on a node, newest
// first (Engine.History).
func historyOf(e *Engine, node string, t Tuple) (out []Interval) {
	e.History(node, t, func(iv Interval) bool {
		out = append(out, iv)
		return true
	})
	return out
}

// ticks renders a history by tick, newest first: @t for an event
// occurrence, [from,to) for a closed interval and [from,) for an open one.
func ticks(h []Interval) string {
	var b strings.Builder
	for i, iv := range h {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch {
		case iv.Open:
			fmt.Fprintf(&b, "[%d,)", iv.From.T)
		case iv.From == iv.To:
			fmt.Fprintf(&b, "@%d", iv.From.T)
		default:
			fmt.Fprintf(&b, "[%d,%d)", iv.From.T, iv.To.T)
		}
	}
	return b.String()
}

// TestHistEditsCopyOnFirstWrite: a tuple's history is its rows, so an edit
// to a history on a forked table — an occurrence appended, a row killed, a
// row backdated, a displaced generation's death moved — is a write to the
// clone's rows. An occurrence erased is the one edit that writes no row:
// the fork marks it killed and leaves its table the base's. Each shows in
// the fork's History and leaves the sealed base's History and rows as they
// were.
func TestHistEditsCopyOnFirstWrite(t *testing.T) {
	p := MustParse(`
table s/1 base mutable;
table cfg/2 base mutable key(0);
table ev/1 event base;
table out/1 event;
rule fwd out(@N, X) :- ev(@N, X), s(@N, X).
`)
	s1, s2 := NewTuple("s", Int(1)), NewTuple("s", Int(2))
	cfgA, cfgB := NewTuple("cfg", Str("k"), Str("a")), NewTuple("cfg", Str("k"), Str("b"))
	ev, out := NewTuple("ev", Int(1)), NewTuple("out", Int(1))
	base := New(p, nil)
	for _, s := range []struct {
		t    Tuple
		tick int64
	}{{s1, 1}, {cfgA, 2}, {ev, 3}, {ev, 5}, {s2, 6}, {cfgB, 6}} {
		if err := base.ScheduleInsert("n", s.t, s.tick); err != nil {
			t.Fatal(err)
		}
	}
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	base.Seal()
	baseHist := map[string]string{}
	tuples := []Tuple{s1, s2, cfgA, cfgB, ev, out}
	for _, tu := range tuples {
		baseHist[tu.String()] = ticks(historyOf(base, "n", tu))
	}
	baseRows := rowDigest(base)

	cases := []struct {
		name   string
		insert bool
		t      Tuple
		tick   int64
		// edited is the tuple whose history the write changes, and want
		// that history on the fork; clones says whether its table is cloned.
		edited Tuple
		want   string
		clones bool
	}{
		{"append", true, ev, 7, ev, "@7 @5 @3", true},
		{"close-last", false, s1, 8, s1, "[1,8)", true},
		{"backdate", true, s2, 4, s2, "[4,)", true},
		{"close-at", true, cfgB, 4, cfgA, "[2,4)", true},
		{"remove-occurrence", false, s1, 4, out, "@3", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := base.Fork(nil)
			var err error
			if c.insert {
				err = f.ScheduleInsert("n", c.t, c.tick)
			} else {
				err = f.ScheduleDelete("n", c.t, c.tick)
			}
			if err == nil {
				err = f.Run()
			}
			if err != nil {
				t.Fatal(err)
			}
			if cloned := f.table("n", c.edited.Table) != base.table("n", c.edited.Table); cloned != c.clones {
				t.Fatalf("the fork cloned table %s: %v, want %v", c.edited.Table, cloned, c.clones)
			}
			if got, was := ticks(historyOf(f, "n", c.edited)), baseHist[c.edited.String()]; got != c.want || got == was {
				t.Errorf("fork's history of %s = %s, want %s (the base's is %s)", c.edited, got, c.want, was)
			}
			for _, tu := range tuples {
				if got := ticks(historyOf(base, "n", tu)); got != baseHist[tu.String()] {
					t.Errorf("sealed base's history of %s = %s after the fork's write, was %s", tu, got, baseHist[tu.String()])
				}
			}
			if got := rowDigest(base); got != baseRows {
				t.Errorf("sealed base's rows changed:\n%s\nwant\n%s", got, baseRows)
			}
		})
	}
}

// TestErasureLeavesItsTableUnowned: a trial that erases an occurrence
// writes no row of the occurrence's table — the stamp is marked killed —
// so the fork leaves that table the base's, and Stats.DirtyTables counts
// only the table the trial wrote: the gate it deleted.
func TestErasureLeavesItsTableUnowned(t *testing.T) {
	p := MustParse(`
table gate/1 base mutable;
table ping/1 event base;
table pong/1 event;
rule fire pong(X) :- ping(X), gate(X).
`)
	base := New(p, nil)
	if err := base.ScheduleInsert("n", NewTuple("gate", Int(1)), 0); err != nil {
		t.Fatal(err)
	}
	if err := base.ScheduleInsert("n", NewTuple("ping", Int(1)), 10); err != nil {
		t.Fatal(err)
	}
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	base.Seal()
	f := base.Fork(nil)
	if err := f.ScheduleDelete("n", NewTuple("gate", Int(1)), 5); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if f.ExistsEver("n", NewTuple("pong", Int(1))) {
		t.Fatal("the pong occurrence survived its erasure")
	}
	if f.table("n", "pong") != base.table("n", "pong") {
		t.Error("the fork cloned pong, whose rows the erasure does not write")
	}
	if f.table("n", "gate").owner != f {
		t.Error("the fork did not clone gate, whose row it killed")
	}
	if got := f.Stats().DirtyTables; got != 1 {
		t.Errorf("DirtyTables = %d, want 1: only gate was written", got)
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
	e := New(p, nil)
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
// bytes — Engine.History (under Exists) and aggGroupFor — index
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
	e := New(p, nil)
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
