package core

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/replay"
)

// TestChangeTickComparesKeysLikeTheEngine: an insertion into a keyed table is
// pushed past a bad-world row only when that row has the same primary key —
// the row the engine's keyed insert would replace. Key columns compare with
// ==, as the engine's kind-tagged, length-prefixed key does, so rows whose
// key columns merely render alike ("a|b","c" and "a","b|c"; the string "1"
// and the integer 1) do not delay the change.
func TestChangeTickComparesKeysLikeTheEngine(t *testing.T) {
	prog := ndlog.MustParse(`
table cfg/3 base mutable key(0, 1);
table ev/1 event base;
table out/1 event;

rule r out(V) :- ev(K), cfg(K, L, V).
`)
	cfg := func(k, l ndlog.Value, v int64) ndlog.Tuple { return ndlog.NewTuple("cfg", k, l, ndlog.Int(v)) }
	for _, c := range []struct {
		name           string
		existing, side ndlog.Tuple
		want           int64
	}{
		{"separator inside a string", cfg(ndlog.Str("a|b"), ndlog.Str("c"), 1), cfg(ndlog.Str("a"), ndlog.Str("b|c"), 2), 18},
		{"string against integer", cfg(ndlog.Str("1"), ndlog.Str("c"), 1), cfg(ndlog.Int(1), ndlog.Str("c"), 2), 18},
		{"same key", cfg(ndlog.Str("a"), ndlog.Str("b|c"), 1), cfg(ndlog.Str("a"), ndlog.Str("b|c"), 2), 20},
	} {
		s := replay.NewSession(prog)
		if err := s.Insert("n", c.existing, 19); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(s)
		if err != nil {
			t.Fatal(err)
		}
		d := &diag{prog: prog}
		// Needed by 20 with a slack of 2: tick 18, unless a row with the
		// same key first appeared at 19 and would overwrite the change.
		if got := d.changeTick(w, ndlog.At{Node: "n", Tuple: c.side}, 20); got != c.want {
			t.Errorf("%s: insert %s beside %s at t=%d, want t=%d", c.name, c.side, c.existing, got, c.want)
		}
	}
}
