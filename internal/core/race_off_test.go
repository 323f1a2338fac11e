//go:build !race

package core_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation guard skips under it (its instrumentation allocates).
const raceEnabled = false
