//go:build !race

package store

// raceEnabled reports whether the race detector is compiled in; the
// allocation guard skips under it.
const raceEnabled = false
