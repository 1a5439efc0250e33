package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two outliers, not a percentile.
const minBeyond = 10

// rankOf returns the 0-based index of the p-quantile (0 < p < 1) in an
// ascending sample of n values: the nearest-rank definition, so the
// reported value is always one that was measured.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// beyond reports how many of n samples lie above the p-quantile's rank.
func beyond(n int, p float64) int { return n - 1 - rankOf(n, p) }

// supports reports whether n samples carry the p-quantile with at least
// minBeyond samples above it.
func supports(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// minSamples is the smallest sample count that supports the p-quantile.
func minSamples(p float64) int {
	n := 1
	for !supports(n, p) {
		n++
	}
	return n
}

// quantile returns the p-quantile of an ascending sample and whether the
// sample supports it (see supports). The median needs only one sample.
func quantile(sorted []float64, p float64) (float64, bool) {
	if len(sorted) == 0 {
		return math.NaN(), false
	}
	v := sorted[rankOf(len(sorted), p)]
	if p <= 0.5 {
		return v, true
	}
	return v, supports(len(sorted), p)
}

// series is one metric's samples in their unit.
type series []float64

func (s series) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// p returns the p-quantile, or NaN when the sample does not support it.
func (s series) p(q float64) float64 {
	v, ok := quantile(s.sorted(), q)
	if !ok {
		return math.NaN()
	}
	return v
}

func (s series) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a handful of values (set-up repetitions, window figures):
// the middle value, or the mean of the two middle ones.
func median(vs []float64) float64 {
	s := series(vs).sorted()
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
