//go:build !race

package scenarios

// raceEnabled reports whether the race detector is compiled in; the
// allocation guards skip under it (its instrumentation allocates).
const raceEnabled = false
