//go:build !race

package provenance

// raceEnabled reports whether the race detector is compiled in; the
// allocation guard skips under it (instrumentation allocates).
const raceEnabled = false
