package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of latencies in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// quantile returns the nearest-rank q-quantile in nanoseconds (0 for
// an empty set). The slice is sorted in place.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return float64(s[r])
}

// medianOfRounds is the median over rounds of each round's
// q-quantile, in nanoseconds.
func medianOfRounds(rounds []samples, q float64) float64 {
	var per []float64
	for _, s := range rounds {
		if len(s) > 0 {
			per = append(per, s.quantile(q))
		}
	}
	return median(per)
}

// ms and us convert a nanosecond quantile.
func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// median of float64 values (mean of the middle two for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is num/den, or 0 when den is not positive (nothing measured).
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
