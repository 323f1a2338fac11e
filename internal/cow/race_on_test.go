//go:build race

package cow

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
