package ndlog

import (
	"reflect"
	"testing"
)

// Every history edit on a forked table goes through ownHist: the first
// write to a key copies the sealed base's history, the base's own slice is
// never written, and a second edit works on the copy instead of copying
// again (which would also lose the first edit).
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

	cases := []struct {
		name string
		edit func(tb *table)
		want func(h []Interval) []Interval
	}{
		{"append",
			func(tb *table) { tb.histAppend(key, Interval{From: at(5, 5), To: at(5, 5)}) },
			func(h []Interval) []Interval { return append(h, Interval{From: at(5, 5), To: at(5, 5)}) }},
		{"close-last",
			func(tb *table) { tb.histCloseLast(key, at(6, 6)) },
			func(h []Interval) []Interval { h[2].To, h[2].Open = at(6, 6), false; return h }},
		{"backdate",
			func(tb *table) { tb.histBackdateFrom(key, 4, at(3, 9)) },
			func(h []Interval) []Interval { h[2].From = at(3, 9); return h }},
		{"close-at",
			func(tb *table) { tb.histCloseAt(key, 4, at(5, 1)) },
			func(h []Interval) []Interval { h[2].To, h[2].Open = at(5, 1), false; return h }},
		{"remove-occurrence",
			func(tb *table) { tb.histRemoveOcc(key, 3) },
			func(h []Interval) []Interval { return append(h[:1], h[2:]...) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := &table{decl: &TableDecl{Name: "ev"}, live: map[string]*row{}, sealed: true,
				hist: map[string][]Interval{key: baseHist()}}
			ft := forkTable(base)

			c.edit(ft)
			if got, want := ft.histOf(key), c.want(baseHist()); !reflect.DeepEqual(got, want) {
				t.Fatalf("after the edit: %v, want %v", got, want)
			}
			owned := &ft.hist[key][0]
			ft.histBackdateFrom(key, 1, at(0, 7))
			if &ft.hist[key][0] != owned {
				t.Error("second edit copied the history again")
			}
			if got, want := ft.histOf(key), second(c.want(baseHist())); !reflect.DeepEqual(got, want) {
				t.Errorf("after both edits: %v, want %v", got, want)
			}
			if got := base.hist[key]; !reflect.DeepEqual(got, baseHist()) {
				t.Errorf("sealed base history written: %v", got)
			}
		})
	}
}
