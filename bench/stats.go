package main

import (
	"sort"
	"time"

	"repro/internal/stats"
)

// sample is a set of observations of one quantity, kept whole so the report
// can print the count behind every median and percentile.
type sample []float64

func (s *sample) addDur(d time.Duration)    { *s = append(*s, d.Seconds()) }
func (s sample) sorted() []float64          { c := append([]float64(nil), s...); sort.Float64s(c); return c }
func (s sample) quantile(p float64) float64 { return stats.Percentile(s.sorted(), p) }
func (s sample) median() float64            { return s.quantile(0.5) }

// tailCandidates are the percentiles a report may quote, highest first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailPercentile returns the highest candidate percentile that has at least
// ten samples beyond it among n observations; ok is false when not even the
// 75th qualifies, in which case only the median is worth reporting.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		// Samples strictly beyond the p-quantile: ⌊n·(1−p)⌋, computed in
		// integers so 200·(1−0.95) is exactly 10.
		if n*int(1000-c*1000+0.5)/1000 >= 10 {
			return c, true
		}
	}
	return 0.5, false
}

// quartiles returns the first quartile, median and third quartile exactly as
// Python's statistics.quantiles(values, n=4) does (the exclusive method), so
// the spreads -repeat prints are the ones the acceptance driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
