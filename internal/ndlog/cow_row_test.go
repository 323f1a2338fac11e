package ndlog

import (
	"fmt"
	"strings"
	"testing"
)

// frozenProg has a row for every write a fork makes to one: transitive
// reach (supports added, dropped and retracted in cascades), a keyed table
// (primary-key replacement) and an argmax rule (a winner that flips).
var frozenProg = MustParse(`
table link/2 base mutable;
table reach/2;
table cfg/2 base mutable key(0);
table prio/1 base mutable;
table probe/1 event base;
table out/2 event;
table pick/1;
rule direct reach(@S, S, D) :- link(@S, S, D).
rule trans reach(@S, S, D) :- link(@S, S, M), reach(@M, M, D).
rule fwd out(@N, K, V) :- probe(@N, K), cfg(@N, K, V).
rule win pick(@N, P) :- probe(@N, K), prio(@N, P), argmax P.
`)

func link(a, b string) Tuple   { return NewTuple("link", Str(a), Str(b)) }
func cfg(k, v string) Tuple    { return NewTuple("cfg", Str(k), Str(v)) }
func prio(p int64) Tuple       { return NewTuple("prio", Int(p)) }
func reach(a, b string) string { return NewTuple("reach", Str(a), Str(b)).Key() }

// rowDigest renders every row of every table of e: its pointer and
// position, its tuple key, appearance, death and supports, and whether the
// live index and the primary-key index resolve to it.
func rowDigest(e *Engine) string {
	var b strings.Builder
	for _, n := range e.nodeOrder {
		for _, name := range e.prog.declOrder {
			tb := e.table(n.name, name)
			if tb == nil {
				continue
			}
			fmt.Fprintf(&b, "%s/%s: %d rows\n", n.name, name, tb.size())
			for pos := 0; pos < tb.size(); pos++ {
				r := tb.row(pos)
				fmt.Fprintf(&b, "  %d %p pos=%d %s %v %v dead=%v live=%v", pos, r, r.pos, r.key, r.appearedAt, r.diedAt, r.dead, tb.liveRow(r.key) == r)
				if len(tb.decl.Key) > 0 {
					fmt.Fprintf(&b, " pk=%v", tb.rowAt(tb.keyIdx.Get(primaryKey(tb.decl, r.tuple))) == r)
				}
				for _, s := range r.supports {
					fmt.Fprintf(&b, " [%d %s %v]", s.deriveID, s.rule, s.body)
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// TestForkLeavesBaseRowsFrozen: a fork writes a row it shares with its
// sealed base only through a copy of its own (writableRow). Every way a
// fork writes a row — an extra support on a base row, a base delete, a
// derived support dropped, a retraction, a primary-key replacement, a
// backdated insert, an argmax winner that flips, and such writes in a fork
// of a fork — leaves the base's rows, and their live, primary-key and order
// slots, exactly as they were.
func TestForkLeavesBaseRowsFrozen(t *testing.T) {
	base := New(frozenProg, nil, WithSeqBand(SeqBandDefault))
	for _, s := range []struct {
		node string
		t    Tuple
		tick int64
	}{
		{"a", link("a", "b"), 0}, {"b", link("b", "c"), 0}, {"a", link("a", "c"), 0},
		{"c", link("c", "d"), 1}, {"d", link("d", "e"), 3},
		{"n", cfg("k1", "v"), 2}, {"n", cfg("k2", "v"), 2}, {"n", prio(1), 2}, {"n", prio(5), 2},
		{"n", NewTuple("probe", Str("k1")), 20}, {"n", NewTuple("probe", Str("k2")), 21},
	} {
		if err := base.ScheduleInsert(s.node, s.t, s.tick); err != nil {
			t.Fatal(err)
		}
	}
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	base.Seal()
	want := rowDigest(base)

	type write struct {
		insert bool
		node   string
		t      Tuple
		tick   int64
	}
	live := func(f *Engine, node, table, key string) *row {
		if tb := f.table(node, table); tb != nil {
			return tb.liveRow(key)
		}
		return nil
	}
	cases := []struct {
		name   string
		writes []write
		// done reports that the fork made the write the case is named for.
		done func(f *Engine) bool
	}{
		{"extra support on a base row", []write{{true, "a", link("a", "b"), 5}},
			func(f *Engine) bool { return len(live(f, "a", "link", link("a", "b").Key()).supports) == 2 }},
		{"base delete", []write{{false, "b", link("b", "c"), 5}},
			func(f *Engine) bool { return len(f.LiveTuples("b", "link")) == 0 }},
		{"derived support dropped", []write{{false, "a", link("a", "c"), 5}},
			func(f *Engine) bool { return len(live(f, "a", "reach", reach("a", "c")).supports) == 1 }},
		{"retraction", []write{{false, "d", link("d", "e"), 5}},
			func(f *Engine) bool { return live(f, "d", "reach", reach("d", "e")) == nil }},
		{"primary-key replacement", []write{{true, "n", cfg("k1", "w"), 5}},
			func(f *Engine) bool {
				return fmt.Sprint(f.LiveTuples("n", "cfg")) == fmt.Sprint([]Tuple{cfg("k2", "v"), cfg("k1", "w")})
			}},
		{"backdated insert", []write{{true, "c", link("c", "d"), 0}},
			func(f *Engine) bool { return live(f, "c", "link", link("c", "d").Key()).appearedAt.T == 0 }},
		{"argmax flip", []write{{true, "n", prio(9), 10}},
			func(f *Engine) bool {
				return fmt.Sprint(f.LiveTuples("n", "pick")) == fmt.Sprint([]Tuple{NewTuple("pick", Int(9))})
			}},
	}
	run := func(e *Engine, writes []write) *Engine {
		f := e.Fork(nil)
		for _, w := range writes {
			var err error
			if w.insert {
				err = f.ScheduleInsert(w.node, w.t, w.tick)
			} else {
				err = f.ScheduleDelete(w.node, w.t, w.tick)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, c := range cases {
		f := run(base, c.writes)
		if !c.done(f) {
			t.Errorf("%s: the fork did not make the write", c.name)
		}
		if got := rowDigest(base); got != want {
			t.Fatalf("%s: the fork wrote its base's rows:\nbefore:\n%s\nafter:\n%s", c.name, want, got)
		}
	}

	// A fork of a fork: the middle engine's own rows — the copies it made
	// and the rows it appended — stay frozen too once it is sealed, and so
	// do the root's.
	var midWrites, topWrites []write
	for i, c := range cases {
		if i == 0 || i == 4 || i == 6 {
			midWrites = append(midWrites, c.writes...)
		} else {
			topWrites = append(topWrites, c.writes...)
		}
	}
	mid := run(base, midWrites)
	mid.Seal()
	wantMid := rowDigest(mid)
	top := run(mid, append(topWrites,
		write{false, "a", link("a", "b"), 30}, // a row mid copied
		write{false, "n", cfg("k1", "w"), 30}, // a row mid appended
		write{false, "n", prio(9), 15}))       // flips the winner back
	if live(top, "n", "cfg", cfg("k1", "w").Key()) != nil || live(top, "n", "pick", NewTuple("pick", Int(5)).Key()) == nil {
		t.Error("the fork of a fork did not make its writes")
	}
	if got := rowDigest(mid); got != wantMid {
		t.Fatalf("a fork of a fork wrote its base's rows:\nbefore:\n%s\nafter:\n%s", wantMid, got)
	}
	if got := rowDigest(base); got != want {
		t.Fatalf("a fork of a fork wrote the root's rows:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}
