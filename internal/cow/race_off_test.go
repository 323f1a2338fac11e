//go:build !race

package cow

// raceEnabled reports whether the race detector is compiled in; the
// allocation guard skips under it.
const raceEnabled = false
