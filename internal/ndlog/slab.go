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
// Sizing (DESIGN §2): a new chunk is half of what the slab has handed out
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
// dying with it. It holds what the engine creates per derivation and keeps:
// rows and their supports, a binding's refs, a head's args, dependents,
// event-occurrence dependents and their chunks, and the bytes of the
// canonical keys the engine renders and keeps (key). A key rendered outside the engine
// (Tuple.Key, Text) stays a heap string: it is the caller's, and must not
// keep an engine's chunks alive. Work items are not here either: they die
// once processed, and the engine reuses them through its free list (push,
// recycle). Nor are the tables of Go maps.
type arena struct {
	rows      slab[row]
	supports  slab[support]
	refs      slab[BodyRef]
	args      slab[Value]
	deps      slab[dependentRef]
	occDeps   slab[occDep]
	occChunks slab[occChunk]
	keys      slab[byte]
	// groups is the current chunk of count() groups (group): a slice, as
	// a slab's counter would not fit the engine's size class
	// (TestEngineFitsItsSizeClass).
	groups []aggGroup
}

// group returns a zeroed count() group from the arena's current chunk.
func (a *arena) group() *aggGroup {
	if len(a.groups) == cap(a.groups) {
		a.groups = make([]aggGroup, 0, min(max(2*cap(a.groups), 4), 64))
	}
	a.groups = a.groups[:len(a.groups)+1]
	return &a.groups[len(a.groups)-1]
}

// text returns what render appends to an empty buffer as a string whose
// bytes are a window of the arena: rendered in the pooled key buffer and
// copied, one allocation per chunk instead of one per string.
func (a *arena) text(render func(b []byte) []byte) string {
	kb := getKeyBuf()
	b := render(kb.b[:0])
	w := a.keys.take(len(b), 0)
	copy(w, b)
	putKeyBuf(kb, b)
	// A string's bytes must never change. These do not: take hands a
	// window out once, clipped to its length, and a slab never writes a
	// window again or reuses a chunk, so after the copy above nothing
	// writes them for as long as anything holds the string.
	return unsafe.String(unsafe.SliceData(w), len(w))
}

// key returns t's canonical key (Tuple.Key) for the engine to keep.
func (a *arena) key(t Tuple) string { return a.text(t.AppendKey) }
