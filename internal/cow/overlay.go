// Package cow is the copy-on-write overlay that a sealed base run shares
// with its forks (DESIGN.md §5). A counterfactual trial forks the base and
// touches a handful of keys; an Overlay makes what the fork writes its own
// and reads everything else through the base, so a fork costs what it
// changes, not what the base holds.
package cow

// Overlay is one link of a copy-on-write chain of maps: the entries this
// link wrote, over the link it was forked from. Reads walk the chain
// top-down and the first link that holds a key answers; a link holding the
// zero value holds a tombstone, which hides whatever the links below hold
// and reads as absent. Writes land in the link's own map, made on the first
// one, and never in a base, which sibling forks may read concurrently. The
// fields are unexported, so only these methods write a link.
//
// The zero Overlay is an empty root. Fork a link only once nothing writes
// it any more (its engine or graph is sealed).
type Overlay[K comparable, V any] struct {
	m    map[K]V
	base *Overlay[K, V]
}

// Fork returns an empty link over o.
func (o *Overlay[K, V]) Fork() Overlay[K, V] { return Overlay[K, V]{base: o} }

// Get returns k's value in the topmost link that holds it, or the zero
// value.
func (o *Overlay[K, V]) Get(k K) V {
	for l := o; l != nil; l = l.base {
		if v, ok := l.m[k]; ok {
			return v
		}
	}
	var zero V
	return zero
}

// Find is Get for a key the caller holds in another form, such as a
// tuple key's bytes, and for a caller that needs to know whose value it
// got. probe looks the key up in one link's map, where the caller can
// write m[string(b)], which the compiler evaluates without building the
// string. probe must only read the map. own reports that the value is this
// link's own.
func (o *Overlay[K, V]) Find(probe func(map[K]V) (V, bool)) (v V, own bool) {
	for l := o; l != nil; l = l.base {
		if v, ok := probe(l.m); ok {
			return v, l == o
		}
	}
	return v, false
}

// Own returns k's value as this link may edit it in place: its own entry,
// or, on the key's first write here, copy of what the chain below holds
// (the zero value if nothing), stored as this link's. copy must return a
// value that shares nothing writable with its argument.
func (o *Overlay[K, V]) Own(k K, copy func(V) V) V {
	if v, ok := o.m[k]; ok {
		return v
	}
	v := copy(o.base.Get(k))
	o.Set(k, v)
	return v
}

// Local returns k's value in this link, if it holds one.
func (o *Overlay[K, V]) Local(k K) (V, bool) {
	v, ok := o.m[k]
	return v, ok
}

// Append appends x to k's list in o's link: to the link's own list, or, on
// k's first write here, to grow(what the chain below holds), a private copy
// with room for x. An own list that is empty (a tombstone, or emptied by
// the caller) is grown from nothing. Unlike Own then Set, it writes the map
// once: Go's maps grow a full eight-slot map on any write, even to a key it
// holds.
func Append[K comparable, E any](o *Overlay[K, []E], k K, grow func([]E) []E, x E) {
	l, own := o.m[k]
	if !own {
		l = o.base.Get(k)
	}
	if !own || len(l) == 0 {
		l = grow(l)
	}
	o.Set(k, append(l, x))
}

// Set stores v as k's value in this link.
func (o *Overlay[K, V]) Set(k K, v V) {
	if o.m == nil {
		o.m = make(map[K]V)
	}
	o.m[k] = v
}

// Delete removes k: a link stores a tombstone if a link below holds k, and
// otherwise forgets it, so a key a fork adds and removes again, like a root
// does, leaves no entry.
func (o *Overlay[K, V]) Delete(k K) {
	for l := o.base; l != nil; l = l.base {
		if _, ok := l.m[k]; ok {
			var zero V
			o.Set(k, zero)
			return
		}
	}
	delete(o.m, k)
}

// Each calls fn with k's value in every link that holds it, root first:
// for append-only lists, where each link holds the tail it appended and
// the whole list is the links' parts in chain order.
func (o *Overlay[K, V]) Each(k K, fn func(V)) {
	if o == nil {
		return
	}
	o.base.Each(k, fn)
	if v, ok := o.m[k]; ok {
		fn(v)
	}
}
