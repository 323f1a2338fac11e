//go:build race

package provenance

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
