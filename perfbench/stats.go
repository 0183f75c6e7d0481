package main

import (
	"fmt"
	"math"
	"sort"
)

// Sample is a set of measurements of one quantity (a latency, a wall
// time). Percentiles use the nearest-rank rule and always travel with
// their sample count, so a p90 over three values reads as such.
type Sample []float64

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) and
// the number of samples it was taken over. An empty sample yields NaN.
func (s Sample) Percentile(p float64) (float64, int) {
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n
}

// Median is the nearest-rank 50th percentile.
func (s Sample) Median() float64 {
	v, _ := s.Percentile(50)
	return v
}

// Sum adds the samples.
func (s Sample) Sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// Ratio is a fraction printed with its base: Num out of Den.
type Ratio struct {
	Num, Den float64
}

// Value is Num/Den, or 0 for an empty base.
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r Ratio) String() string {
	return fmt.Sprintf("%.4f (%g / %g)", r.Value(), r.Num, r.Den)
}
