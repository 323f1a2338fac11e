package replay

import (
	"testing"

	"repro/internal/ndlog"
)

// TestTupleAndChangeStringsArePinned pins the text of values, tuples and
// changes — what a diagnosis reports and the server sends — byte for byte,
// over every Value kind, with strings holding quotes, backslashes,
// non-ASCII and control bytes, a negative Int and a zero-arg tuple.
func TestTupleAndChangeStringsArePinned(t *testing.T) {
	ip := ndlog.MustParseIP("10.0.1.254")
	pfx := ndlog.MustParsePrefix("192.168.0.0/23")
	values := []struct {
		v    ndlog.Value
		want string
	}{
		{ndlog.Int(-42), "-42"},
		{ndlog.Str(`say "hi"\n`), `say "hi"\n`},
		{ip, "10.0.1.254"},
		{pfx, "192.168.0.0/23"},
		{ndlog.ID(0xbeef), "#beef"},
		{ndlog.Bool(true), "true"},
		{ndlog.Prefix{}, "0.0.0.0/0"},
	}
	for _, c := range values {
		if got := c.v.String(); got != c.want {
			t.Errorf("%s value: String() = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
	tuples := []struct {
		tp   ndlog.Tuple
		want string
	}{
		{ndlog.NewTuple("flowEntry", ndlog.Int(5), pfx, ndlog.Str("s2")),
			`flowEntry(5, 192.168.0.0/23, "s2")`},
		{ndlog.NewTuple("all", ndlog.Int(-42), ndlog.Str(`say "hi"\n`), ndlog.Str("naïve ✓"),
			ndlog.Str("tab\tbell\a\x00\xff"), ip, pfx, ndlog.ID(0xbeef), ndlog.Bool(true), ndlog.Bool(false)),
			"all(-42, \"say \\\"hi\\\"\\\\n\", \"naïve ✓\", \"tab\\tbell\\a\\x00\\xff\", 10.0.1.254, 192.168.0.0/23, #beef, true, false)"},
		{ndlog.NewTuple("empty"), "empty()"},
		{ndlog.NewTuple("zeros", ndlog.Int(0), ndlog.Str(""), ndlog.IP(0), ndlog.Prefix{}, ndlog.ID(0)),
			`zeros(0, "", 0.0.0.0, 0.0.0.0/0, #0)`},
	}
	for _, c := range tuples {
		if got := c.tp.String(); got != c.want {
			t.Errorf("Tuple.String() = %q, want %q", got, c.want)
		}
	}
	changes := []struct {
		c    Change
		want string
	}{
		{Change{Insert: true, Node: "s1", Tuple: tuples[0].tp, Tick: 7},
			`insert flowEntry(5, 192.168.0.0/23, "s2") on s1 at t=7`},
		{Change{Node: `node "x"`, Tuple: tuples[1].tp, Tick: -3},
			"delete all(-42, \"say \\\"hi\\\"\\\\n\", \"naïve ✓\", \"tab\\tbell\\a\\x00\\xff\", 10.0.1.254, 192.168.0.0/23, #beef, true, false) on node \"x\" at t=-3"},
		{Change{Insert: true, Tuple: tuples[2].tp, Tick: 1234567890123},
			"insert empty() on  at t=1234567890123"},
	}
	for _, c := range changes {
		if got := c.c.String(); got != c.want {
			t.Errorf("Change.String() = %q, want %q", got, c.want)
		}
	}
}
