package ndlog

import (
	"testing"
	"unsafe"
)

// takeCounting takes from the slab and reports how many elements the take
// allocated: a new chunk's capacity, a plain make's, or nothing.
func takeCounting[T any](s *slab[T], n, extra int) (w []T, made int) {
	prev := s.cur
	w = s.take(n, extra)
	switch {
	case cap(s.cur) > 0 && (cap(prev) == 0 || &s.cur[:1][0] != &prev[:1][0]):
		made = cap(s.cur) // a new chunk
	case len(s.cur) == len(prev):
		made = cap(w) // served beside the chunk
	}
	return w, made
}

// TestSlabPointersAndWindowsSurviveGrowth: chunks are never reallocated, so
// what 10 000 takes handed out — single elements by pointer and windows —
// still reads what was written there when each was taken.
func TestSlabPointersAndWindowsSurviveGrowth(t *testing.T) {
	var s slab[[2]int]
	var ptrs []*[2]int
	var wins [][][2]int
	for i := 0; i < 10000; i++ {
		if i%3 == 0 {
			w := s.take(1+i%4, i%2)
			for k := range w {
				if w[k] != ([2]int{}) {
					t.Fatalf("take %d: window element %d is not zero: %v", i, k, w[k])
				}
				w[k] = [2]int{i, k}
			}
			wins = append(wins, w)
			continue
		}
		p := s.one()
		*p = [2]int{i, -1}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if p[1] != -1 || p[0]%3 == 0 {
			t.Fatalf("a pointer handed out earlier now reads %v", *p)
		}
	}
	for _, w := range wins {
		i := w[0][0]
		if len(w) != 1+i%4 || cap(w) != len(w)+i%2 {
			t.Fatalf("window of take %d has len %d cap %d", i, len(w), cap(w))
		}
		for k := range w {
			if w[k] != ([2]int{i, k}) {
				t.Fatalf("window of take %d, element %d reads %v", i, k, w[k])
			}
		}
	}
}

// TestSlabWindowsAreClipped: a window's capacity ends where it does, so an
// append past it copies and the window handed out next keeps its contents.
func TestSlabWindowsAreClipped(t *testing.T) {
	var s slab[int]
	for cap(s.cur)-len(s.cur) < 5 { // a chunk with room for both windows
		s.one()
	}
	lo := len(s.cur)
	a, b := s.take(2, 1), s.take(2, 0)
	if &a[0] != &s.cur[lo] || &b[0] != &s.cur[lo+3] {
		t.Fatal("the two windows are not neighbours in the current chunk")
	}
	b[0], b[1] = 7, 8
	a = append(a, 1) // the room asked for
	if cap(a) != 3 || &a[0] != &s.cur[lo] {
		t.Fatalf("using the extra room moved the window (cap %d)", cap(a))
	}
	a = append(a, 2) // past the window: a copy
	a[0] = 9
	if b[0] != 7 || b[1] != 8 || s.cur[lo] == 9 {
		t.Errorf("append past a window wrote into the chunk: next window %v", b)
	}
}

// TestSlabLargeRequestLeavesChunkAlone: a request no chunk would hold is
// served by a plain make, and the small request after it still lands in the
// chunk that was current.
func TestSlabLargeRequestLeavesChunkAlone(t *testing.T) {
	var s slab[int64]
	for i := 0; i < 2000; i++ {
		s.one()
	}
	chunk, used := &s.cur[:1][0], len(s.cur)
	if used == cap(s.cur) {
		s.one()
		chunk, used = &s.cur[:1][0], len(s.cur)
	}
	big := s.take(slabChunkBytes/8+1, 0)
	if len(big) != slabChunkBytes/8+1 {
		t.Fatalf("large request returned %d elements", len(big))
	}
	if &s.cur[:1][0] != chunk || len(s.cur) != used {
		t.Fatal("a large request replaced or advanced the current chunk")
	}
	p := s.one()
	if p != &s.cur[used] {
		t.Error("the small request after a large one did not land in the old chunk")
	}
}

// TestSlabSlackIsAThirdOfUse: whatever has been handed out, the slab has
// allocated at most half as much again (plus the one element a rounding
// costs) — the sizing rule's bound, on which narrow forks' bytes rest.
func TestSlabSlackIsAThirdOfUse(t *testing.T) {
	for _, takes := range []int{1, 4, 5, 34, 6000} {
		var s slab[row]
		made := 0
		for i := 0; i < takes; i++ {
			_, m := takeCounting(&s, 1, 0)
			made += m
		}
		if s.used != takes {
			t.Fatalf("%d takes: used = %d", takes, s.used)
		}
		if limit := takes + takes/2 + 1; made > limit {
			t.Errorf("%d takes allocated %d elements, want at most %d", takes, made, limit)
		}
		if takes <= 4 && made != takes {
			t.Errorf("%d takes allocated %d elements: a fork that creates four rows pays for four", takes, made)
		}
	}
	if max := slabChunkBytes / int(unsafe.Sizeof(row{})); max != 34 {
		t.Errorf("a chunk holds %d rows; the 34-take case above was chosen as exactly one capped chunk", max)
	}
}

// TestEngineFitsItsSizeClass: an Engine carries its arena by value, and every
// fork allocates one. 768 bytes is a malloc size class; a field more and each
// fork pays for 896.
func TestEngineFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Engine{}); got > 768 {
		t.Errorf("Engine is %d bytes, want at most 768", got)
	}
}
