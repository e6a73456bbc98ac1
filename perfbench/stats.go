package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to count as measured rather than as the maximum in disguise.
const minBeyond = 10

// summary is a sorted sample of one timing, in milliseconds.
type summary struct {
	sorted []float64
}

func summarize(ms []float64) summary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return summary{sorted: s}
}

func (s summary) n() int { return len(s.sorted) }

// rank is the 1-based nearest-rank index of percentile p (0 < p <= 100).
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// pct returns the nearest-rank p-th percentile, or 0 for an empty sample.
func (s summary) pct(p float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[rank(len(s.sorted), p)-1]
}

// beyond is how many samples lie strictly above the rank of percentile p.
func (s summary) beyond(p float64) int {
	if len(s.sorted) == 0 {
		return 0
	}
	return len(s.sorted) - rank(len(s.sorted), p)
}

// resolved reports whether percentile p has at least minBeyond samples
// above it.
func (s summary) resolved(p float64) bool { return s.beyond(p) >= minBeyond }

func (s summary) max() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

// median of a small unsorted set, used for repeated set-up timings.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
