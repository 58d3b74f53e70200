package main

import "sort"

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// minTail is how many samples must lie beyond a percentile before it is
// reported: fewer, and the percentile is one or two unlucky scenarios.
const minTail = 10

// tailP90 returns the 90th percentile of xs and how many samples lie
// strictly beyond it. ok is false when fewer than minTail do, in which
// case the percentile must not be reported.
func tailP90(xs []float64) (p90 float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	p90 = quantile(xs, 0.9)
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	return p90, beyond, beyond >= minTail
}
