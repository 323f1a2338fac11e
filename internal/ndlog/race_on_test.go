//go:build race

package ndlog

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
