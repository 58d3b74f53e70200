//go:build !race

package ck

// raceEnabled reports whether the race detector is compiled in; the
// allocation assertions skip under it.
const raceEnabled = false
