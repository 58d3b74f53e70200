//go:build race

package hw

// raceEnabled reports whether the race detector is compiled in; the
// allocation assertions skip under it.
const raceEnabled = true
