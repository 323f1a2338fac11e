//go:build !race

package ndlog

// raceEnabled reports whether the race detector is compiled in; the
// allocation guards skip under it (sync.Pool drops a quarter of its puts
// at random there, so pooled buffers are re-allocated unpredictably).
const raceEnabled = false
