package main

import (
	"slices"
	"time"
)

// samples collects one latency distribution in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// quantile returns the q-quantile (0 < q < 1) in nanoseconds. The clock
// reads whole nanoseconds, so each sample stands for the interval
// [v, v+1); the quantile interpolates inside the interval it falls in
// (the grouped-data estimator). On spread-out samples this equals the
// nearest-rank quantile; on heavily tied nanosecond samples it keeps
// the sub-nanosecond position that nearest rank would round away. It
// sorts s in place.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	rank := q * float64(len(s))
	v := s[min(int(rank), len(s)-1)]
	lo, _ := slices.BinarySearch(s, v)
	hi, _ := slices.BinarySearch(s, v+1)
	return float64(v) + (rank-float64(lo))/float64(hi-lo)
}

func (s samples) quantileUS(q float64) float64 { return s.quantile(q) / 1e3 }

// median returns the middle of a few set-up times in seconds.
func median(xs []float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
