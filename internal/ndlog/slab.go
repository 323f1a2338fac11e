package ndlog

import "unsafe"

// slab hands out the small, engine-lifetime objects a run creates — a row,
// its first support, a binding's refs, a head's args — from chunks instead
// of one heap object each. A chunk is never reallocated, so a *T or a
// window into it stays valid for as long as anything holds it; nothing is
// ever handed back, and a chunk dies when the last thing pointing into it
// does (which is why trees that outlive a run are detached from it,
// provenance.Tree.Detach).
//
// Sizing (DESIGN §23): a new chunk is half of what the slab has handed out
// so far, capped at slabChunkBytes, and a request larger than two thirds of
// that is a plain make that leaves the current chunk alone. Slack is so at
// most a third of what is allocated: a fork that creates four rows pays for
// four, one that creates five for six.
type slab[T any] struct {
	cur  []T // the current chunk; len is what has been handed out of it
	used int // elements handed out, over all chunks
}

const slabChunkBytes = 4096

// take returns a window of n zeroed elements with room for extra more. Its
// capacity is clipped to n+extra, so an append beyond that copies the
// window to the heap — as append always did — instead of scribbling on the
// window handed out next.
func (s *slab[T]) take(n, extra int) []T {
	want := n + extra
	if want > cap(s.cur)-len(s.cur) {
		var zero T
		size := min(s.used/2, slabChunkBytes/int(unsafe.Sizeof(zero)))
		if 3*want > 2*size {
			s.used += want
			return make([]T, n, want)
		}
		s.cur = make([]T, 0, size)
	}
	lo := len(s.cur)
	s.cur = s.cur[:lo+want]
	s.used += want
	return s.cur[lo : lo+n : lo+want]
}

// clone returns a window holding a copy of src with room for extra more,
// or nil when there is nothing to copy and no room is wanted: the copy an
// overlay link makes of a base's list on the key's first write in a fork
// (cow.Overlay.Own, cow.Append), and a key's first window anywhere.
func (s *slab[T]) clone(src []T, extra int) []T {
	if len(src)+extra == 0 {
		return nil
	}
	w := s.take(len(src), extra)
	copy(w, src)
	return w
}

// one returns a pointer to one zeroed element.
func (s *slab[T]) one() *T { return &s.take(1, 0)[0] }

// arena is the slabs of one engine — a root's or a fork's, never shared,
// dying with it. What is deliberately not here: tuple keys (strings, built
// once and shared by every map that indexes them), deliveries (dead once the
// head has arrived) and the tables of Go maps.
type arena struct {
	rows     slab[row]
	supports slab[support]
	refs     slab[BodyRef]
	args     slab[Value]
	ivs      slab[Interval]
	deps     slab[dependentRef]
	evs      slab[evConsumer]
	evLists  slab[*evConsumer]
}
