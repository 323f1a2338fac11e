package core

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/replay"
)

// TestReplayKeyIsInjective checks the replay memo's key: one cumulative
// change list, however it is split between a world's applied changes and
// the new ones, has one key, and lists that differ in any field — also
// where a node name holds the separators of the rendering — have
// different keys.
func TestReplayKeyIsInjective(t *testing.T) {
	ch := func(insert bool, node string, tick int64, args ...ndlog.Value) replay.Change {
		return replay.Change{Insert: insert, Node: node, Tuple: ndlog.NewTuple("t", args...), Tick: tick}
	}
	a := ch(true, "s1", 5, ndlog.Int(1))
	b := ch(false, "s2", 7, ndlog.Str("x"))
	if replayKey([]replay.Change{a}, []replay.Change{b}) != replayKey(nil, []replay.Change{a, b}) {
		t.Error("one cumulative list, split two ways, has two keys")
	}
	lists := [][]replay.Change{
		nil,
		{a},
		{b},
		{a, b},
		{b, a},
		{ch(false, "s1", 5, ndlog.Int(1))},
		{ch(true, "s1", 6, ndlog.Int(1))},
		{ch(true, "s", 15, ndlog.Int(1))},
		{ch(true, "s1", 5, ndlog.Int(1), ndlog.Int(2))},
		{ch(true, "s1", 5, ndlog.Str("1"))},
		{ch(true, "2:s1", 5, ndlog.Int(1))},
		{ch(true, "s1\n+2:s1", 5, ndlog.Int(1))},
		{ch(true, "s1", 5, ndlog.Str("1\n+2:s15|t|i1"))},
		// One change whose node spells out a second change, against the
		// two changes themselves.
		{ch(true, "a", 5, ndlog.Int(1)), ch(true, "b", 5, ndlog.Int(1))},
		{ch(true, "a|t|i1|5\ntrue|b", 5, ndlog.Int(1))},
		{ch(true, "a", 5, ndlog.Int(1)), ch(true, "b5|t|i1\n+1:c", 5, ndlog.Int(1))},
		{ch(true, "a", 5, ndlog.Int(1)), ch(true, "b", 5, ndlog.Int(1)), ch(true, "c", 5, ndlog.Int(1))},
	}
	seen := map[string]int{}
	for i, l := range lists {
		k := replayKey(l, nil)
		if j, ok := seen[k]; ok {
			t.Errorf("lists %d and %d share the key %q", j, i, k)
		}
		seen[k] = i
	}
}
